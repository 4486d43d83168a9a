package flightlog

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func readGolden(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden_n3_seed1.flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReadFlightAcceptsTornTail cuts the golden log inside the witness
// run's first step record, as a crash mid-write leaves it: the read
// succeeds, equals the read of the complete lines before the cut, and
// reports the witness run unfinished.
func TestReadFlightAcceptsTornTail(t *testing.T) {
	golden := readGolden(t)
	start := bytes.Index(golden, []byte(`{"type":"step","run":"witness"`))
	if start < 0 {
		t.Fatal("golden log has no witness step")
	}
	cut := start + 40
	got, err := ReadFlight(bytes.NewReader(golden[:cut]))
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	want, err := ReadFlight(bytes.NewReader(golden[:start]))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("torn read differs from the read of its complete lines:\n got  %+v\n want %+v", got, want)
	}
	w := got.Run("witness")
	if w == nil || w.End != nil || len(w.Steps) != 0 {
		t.Fatalf("witness run = %+v, want open with no steps", w)
	}
	if c := got.Run("clean"); c == nil || c.End == nil {
		t.Errorf("clean run before the cut lost its end: %+v", c)
	}
}

// FuzzReadFlight feeds ReadFlight arbitrary bytes. It must never panic,
// and whenever it accepts a log it must accept every prefix of it too:
// any cut of a valid log is a log whose writer stopped early.
func FuzzReadFlight(f *testing.F) {
	golden := readGolden(f)
	nl := bytes.IndexByte(golden, '\n')
	for _, cut := range []int{0, 1, 17, nl, nl + 1, len(golden) / 3, len(golden) / 2, len(golden) - 2, len(golden)} {
		f.Add(golden, uint(cut))         // the golden log, cut there
		f.Add(golden[:cut], uint(cut/2)) // a torn log, cut again
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		if _, err := ReadFlight(bytes.NewReader(data)); err != nil {
			return
		}
		k := cut % uint(len(data)+1)
		if _, err := ReadFlight(bytes.NewReader(data[:k])); err != nil {
			t.Fatalf("accepted a %d-byte log but rejected its %d-byte prefix: %v", len(data), k, err)
		}
	})
}
