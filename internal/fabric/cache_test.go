package fabric

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testKey = "ab" + "cdef0123456789abcdef0123456789abcdef0123456789abcdef0123456789"

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(testKey); ok {
		t.Fatal("empty cache hit")
	}
	want := Entry{Report: []byte(`{"cells":1}` + "\n"), Atlas: []byte(`{"type":"atlas"}` + "\n")}
	if err := c.Put(testKey, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(testKey)
	if !ok {
		t.Fatal("miss after put")
	}
	if !bytes.Equal(got.Report, want.Report) || !bytes.Equal(got.Atlas, want.Atlas) {
		t.Fatalf("got %+v", got)
	}
	// Entries shard by key prefix.
	if _, err := os.Stat(filepath.Join(c.dir, testKey[:2], testKey, "report.json")); err != nil {
		t.Fatal(err)
	}
}

func TestCacheNoAtlas(t *testing.T) {
	c, err := OpenCache(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(testKey, Entry{Report: []byte("{}\n")}); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(testKey)
	if !ok || got.Atlas != nil {
		t.Fatalf("got %+v ok=%v", got, ok)
	}
}

func TestCacheRejectsBadKeysAndEmptyReports(t *testing.T) {
	c, err := OpenCache(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", "../../../../etc/passwd", strings.ToUpper(testKey)} {
		if err := c.Put(key, Entry{Report: []byte("x")}); err == nil {
			t.Errorf("key %q accepted", key)
		}
		if _, ok := c.Get(key); ok {
			t.Errorf("key %q hit", key)
		}
	}
	if err := c.Put(testKey, Entry{}); err == nil {
		t.Error("empty report accepted")
	}
}

// An interrupted Put (atlas landed, report didn't) must read as a
// miss: report.json is the commit record.
func TestCachePartialEntryIsMiss(t *testing.T) {
	c, err := OpenCache(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(c.dir, testKey[:2], testKey)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "atlas.jsonl"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(testKey); ok {
		t.Fatal("partial entry hit")
	}
}
