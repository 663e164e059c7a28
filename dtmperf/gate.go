package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// agreeTol is the max-norm distance to the reference a solution may have.
const agreeTol = 1e-6

// checkAgreement is the correctness gate: x must have the reference's length
// and lie within agreeTol of it in the max norm (NaN fails).
func checkAgreement(x, ref []float64) error {
	if len(x) != len(ref) {
		return fmt.Errorf("solution has %d entries, reference %d", len(x), len(ref))
	}
	worst := 0.0
	for i := range x {
		d := math.Abs(x[i] - ref[i])
		if math.IsNaN(d) {
			return fmt.Errorf("solution entry %d is NaN", i)
		}
		worst = math.Max(worst, d)
	}
	if worst > agreeTol {
		return fmt.Errorf("max-norm distance to the reference is %g, above %g", worst, agreeTol)
	}
	return nil
}

// counts are the work counts of a DES solve. They are exact per seed, so
// every solve of one workload and seed must repeat them bit for bit — across
// the runs of a set, between timed and traced runs, and at every GOMAXPROCS.
type counts struct {
	Solves      int     `json:"solves"`
	Messages    int     `json:"messages"`
	VirtualTime float64 `json:"virtual_time"`
	Dropped     int64   `json:"dropped"`
	Duplicated  int64   `json:"duplicated"`
	Retransmits int     `json:"retransmissions"`
	Snapshots   int     `json:"snapshots"`
	Restarts    int     `json:"restarts"`
}

func countsOf(res *core.Result) counts {
	c := counts{Solves: res.Solves, Messages: res.Messages, VirtualTime: res.FinalTime}
	if f := res.Faults; f != nil {
		c.Dropped, c.Duplicated = f.Dropped, f.Duplicated
		c.Retransmits, c.Snapshots, c.Restarts = f.Retransmissions, f.Snapshots, f.Restarts
	}
	return c
}

// countPin holds the counts every DES solve of a run must repeat. The first
// solve fixes them, or a file an earlier run of the same sources, workload
// and seed left in the state directory.
type countPin struct {
	path string
	want *counts
}

func loadCountPin(path string) (*countPin, error) {
	pin := &countPin{path: path}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return pin, nil
	}
	if err != nil {
		return nil, err
	}
	pin.want = new(counts)
	if err := json.Unmarshal(data, pin.want); err != nil {
		return nil, fmt.Errorf("reading pinned counts %s: %w", path, err)
	}
	return pin, nil
}

// check compares c with the pinned counts, pinning (and persisting) c when
// nothing is pinned yet.
func (p *countPin) check(c counts, where string) error {
	if p.want == nil {
		p.want = &c
		data, err := json.Marshal(c)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(p.path), 0o755); err != nil {
			return err
		}
		tmp := p.path + ".tmp"
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, p.path)
	}
	if c != *p.want {
		return fmt.Errorf("%s: DES counts %+v differ from the pinned %+v", where, c, *p.want)
	}
	return nil
}
