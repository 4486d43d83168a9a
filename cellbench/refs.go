package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
)

// refFS holds one reference file per workload, refs/<workload>.jsonl:
// one line per mission the workload can reach, in seed order. The
// files are written by `cellbench -gen-refs <workload>` and checked in,
// so a run compares its outputs with outputs computed before it.
//
//go:embed refs/*.jsonl
var refFS embed.FS

// refEntry is one mission seed's stored reference output.
type refEntry struct {
	Seed uint64 `json:"seed"`
	// Outcome is a table workload's fuzzing outcome, exactly as the
	// campaign records it.
	Outcome json.RawMessage `json:"outcome,omitempty"`
	// Found repeats the outcome's verdict, and Sims and Steps are the
	// mission's reference simulation and step counts; they sort the pool
	// into strata and balance the draws.
	Found bool  `json:"found,omitempty"`
	Sims  int64 `json:"sims,omitempty"`
	Steps int64 `json:"steps,omitempty"`
	// Digest is the clean workload's output digest (see cleanOutput).
	Digest string `json:"digest,omitempty"`
}

// refs maps mission seeds to their reference entries.
type refs map[uint64]refEntry

func loadRefs(workload string) (refs, error) {
	data, err := refFS.ReadFile("refs/" + workload + ".jsonl")
	if err != nil {
		return nil, fmt.Errorf("no references for workload %q: %w", workload, err)
	}
	return parseRefs(bytes.NewReader(data))
}

func parseRefs(r io.Reader) (refs, error) {
	out := refs{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var e refEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("reference line %q: %w", sc.Text(), err)
		}
		out[e.Seed] = e
	}
	return out, sc.Err()
}

// get returns the entry for a seed, or an error naming it.
func (r refs) get(seed uint64) (refEntry, error) {
	e, ok := r[seed]
	if !ok {
		return refEntry{}, fmt.Errorf("no reference for mission seed %d", seed)
	}
	return e, nil
}

// digest is the hex SHA-256 of v's JSON encoding.
func digest(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
