package fabric

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"swarmfuzz/internal/telemetry"
)

// Cache is the fleet-wide content-addressed result store. Entries are
// keyed by the submission's normalized content digest
// (serve.JobSpec.CacheKey) and laid out as
//
//	<dir>/<key[:2]>/<key>/report.json   the served report bytes
//	<dir>/<key[:2]>/<key>/atlas.jsonl   the atlas artifact, when recorded
//
// The report is written last (temp file + rename), so a report.json
// that exists marks a complete entry — a crash mid-Put leaves at worst
// an orphaned atlas file that the next Put overwrites. Results are
// deterministic functions of the key, so concurrent Puts of the same
// key race benignly: both write the same bytes.
type Cache struct {
	dir string
	log *telemetry.Logger
}

// Entry is one cached result.
type Entry struct {
	// Report is the canonical report document (serve.MarshalReport
	// bytes).
	Report []byte
	// Atlas is the search-atlas artifact; nil when the job recorded
	// none.
	Atlas []byte
}

// OpenCache returns a cache rooted at dir, creating it as needed.
func OpenCache(dir string, log *telemetry.Logger) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: cache dir: %w", err)
	}
	return &Cache{dir: dir, log: log}, nil
}

// entryDir maps a key to its directory; false for malformed keys (a
// key is a lowercase hex digest, never attacker-shaped path bits).
func (c *Cache) entryDir(key string) (string, bool) {
	if len(key) < 8 || strings.Trim(key, "0123456789abcdef") != "" {
		return "", false
	}
	return filepath.Join(c.dir, key[:2], key), true
}

// Get returns the entry for key when one is complete.
func (c *Cache) Get(key string) (Entry, bool) {
	dir, ok := c.entryDir(key)
	if !ok {
		return Entry{}, false
	}
	report, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Report: report}
	if atlas, err := os.ReadFile(filepath.Join(dir, "atlas.jsonl")); err == nil {
		e.Atlas = atlas
	}
	return e, true
}

// Put stores an entry under key. Best-effort callers may ignore the
// error: a failed Put only costs a future cache miss.
func (c *Cache) Put(key string, e Entry) error {
	dir, ok := c.entryDir(key)
	if !ok {
		return fmt.Errorf("fabric: malformed cache key %q", key)
	}
	if len(e.Report) == 0 {
		return fmt.Errorf("fabric: cache entry %s has no report", key)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fabric: cache entry dir: %w", err)
	}
	if e.Atlas != nil {
		if err := writeCacheFile(dir, "atlas.jsonl", e.Atlas); err != nil {
			return err
		}
	}
	return writeCacheFile(dir, "report.json", e.Report)
}

// writeCacheFile lands data atomically as dir/name.
func writeCacheFile(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("fabric: cache temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("fabric: write cache %s: %w", name, err)
	}
	// Flush before the rename, so a power cut cannot leave an empty
	// entry under the final name.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("fabric: write cache %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("fabric: write cache %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("fabric: commit cache %s: %w", name, err)
	}
	return nil
}
