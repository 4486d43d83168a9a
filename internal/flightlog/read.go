package flightlog

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Flight is a fully parsed flight log, the input to post-mortem
// generation and forensic analysis.
type Flight struct {
	// Mission is the log header; nil only for an empty log.
	Mission *MissionRecord
	// Runs holds every recorded run in log order.
	Runs []*FlightRun
	// SVGs holds the recorded vulnerability graphs, one per direction.
	SVGs []SVGRecord
	// Seeds is the scheduled fuzzing seed order (empty when the log is
	// from a plain simulation).
	Seeds []SeedRecord
	// Search is the full search iterate trail across all seeds.
	Search []SearchRecord
	// Findings lists every cracked seed.
	Findings []FindingRecord
	// Notes holds free-form mission context.
	Notes []NoteRecord
}

// FlightRun is one run reassembled from its run/step/event/run_end
// records.
type FlightRun struct {
	Label  string
	Spoof  *SpoofRecord
	Steps  []StepRecord
	Events []EventRecord
	// End is the run's closing record; nil when the log was truncated
	// before the run finished.
	End *RunEndRecord
}

// Run returns the first run with the given label, or nil.
func (f *Flight) Run(label string) *FlightRun {
	for _, r := range f.Runs {
		if r.Label == label {
			return r
		}
	}
	return nil
}

// maxLine bounds one JSONL line: a step record grows linearly with the
// swarm size, and 8 MiB covers thousands of drones.
const maxLine = 8 << 20

// ReadFlight parses a JSONL flight log. Step and event records attach
// to the most recently opened run with their label, so repeated labels
// (which the writers avoid) resolve to distinct runs in log order.
//
// A final line without a trailing newline that does not parse is the
// torn tail of a write cut short, as a crash mid-record leaves it: it
// is dropped, and the runs it would have extended stay open (End nil).
// A malformed line anywhere else is corruption and fails the read.
func ReadFlight(r io.Reader) (*Flight, error) {
	f := &Flight{}
	open := map[string]*FlightRun{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	// torn reports whether the line just scanned ended at EOF without
	// its newline.
	torn := false
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		torn = tok != nil && data[adv-1] != '\n'
		return adv, tok, err
	})
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			if torn {
				break
			}
			return nil, fmt.Errorf("flightlog: line %d: %w", lineNo, err)
		}
		var err error
		switch probe.Type {
		case TypeMission:
			var rec MissionRecord
			if err = json.Unmarshal(line, &rec); err == nil {
				f.Mission = &rec
			}
		case TypeRun:
			var rec RunRecord
			if err = json.Unmarshal(line, &rec); err == nil {
				run := &FlightRun{Label: rec.Run, Spoof: rec.Spoof}
				f.Runs = append(f.Runs, run)
				open[rec.Run] = run
			}
		case TypeStep:
			var rec StepRecord
			if err = json.Unmarshal(line, &rec); err == nil {
				if run := open[rec.Run]; run != nil {
					run.Steps = append(run.Steps, rec)
				}
			}
		case TypeEvent:
			var rec EventRecord
			if err = json.Unmarshal(line, &rec); err == nil {
				if run := open[rec.Run]; run != nil {
					run.Events = append(run.Events, rec)
				}
			}
		case TypeRunEnd:
			var rec RunEndRecord
			if err = json.Unmarshal(line, &rec); err == nil {
				if run := open[rec.Run]; run != nil {
					run.End = &rec
				}
			}
		case TypeSVG:
			var rec SVGRecord
			if err = json.Unmarshal(line, &rec); err == nil {
				f.SVGs = append(f.SVGs, rec)
			}
		case TypeSeeds:
			var rec SeedsRecord
			if err = json.Unmarshal(line, &rec); err == nil {
				f.Seeds = append(f.Seeds, rec.Seeds...)
			}
		case TypeSearch:
			var rec SearchRecord
			if err = json.Unmarshal(line, &rec); err == nil {
				f.Search = append(f.Search, rec)
			}
		case TypeFinding:
			var rec FindingRecord
			if err = json.Unmarshal(line, &rec); err == nil {
				f.Findings = append(f.Findings, rec)
			}
		case TypeNote:
			var rec NoteRecord
			if err = json.Unmarshal(line, &rec); err == nil {
				f.Notes = append(f.Notes, rec)
			}
		default:
			// Unknown record types are skipped: newer logs stay readable
			// by older tooling.
		}
		if err != nil && !torn {
			return nil, fmt.Errorf("flightlog: line %d (%s): %w", lineNo, probe.Type, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("flightlog: %w", err)
	}
	return f, nil
}

// ReadFlightFile parses the flight log at path.
func ReadFlightFile(path string) (*Flight, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	return ReadFlight(fh)
}
