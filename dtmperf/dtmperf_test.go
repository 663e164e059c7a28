package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/transport"
)

func TestGateRejectsPerturbedSolution(t *testing.T) {
	ref := []float64{1, -2, 3.5, 0}
	if err := checkAgreement(append([]float64(nil), ref...), ref); err != nil {
		t.Fatalf("exact solution rejected: %v", err)
	}
	near := append([]float64(nil), ref...)
	near[2] += 0.9 * agreeTol
	if err := checkAgreement(near, ref); err != nil {
		t.Fatalf("solution within %g rejected: %v", agreeTol, err)
	}
	for name, mutate := range map[string]func(x []float64) []float64{
		"perturbed": func(x []float64) []float64 { x[1] += 2 * agreeTol; return x },
		"nan":       func(x []float64) []float64 { x[3] = math.NaN(); return x },
		"short":     func(x []float64) []float64 { return x[:3] },
	} {
		if err := checkAgreement(mutate(append([]float64(nil), ref...)), ref); err == nil {
			t.Errorf("%s solution passed the gate", name)
		}
	}
}

func TestCountPinDetectsDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "counts", "w-off0.json")
	pin, err := loadCountPin(path)
	if err != nil {
		t.Fatal(err)
	}
	c := counts{Solves: 10, Messages: 40, VirtualTime: 12.5, Retransmits: 3}
	if err := pin.check(c, "first"); err != nil {
		t.Fatalf("first solve must pin: %v", err)
	}
	if err := pin.check(c, "repeat"); err != nil {
		t.Fatalf("identical counts rejected: %v", err)
	}
	// A later run of the same sources reads the pin back.
	again, err := loadCountPin(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.check(c, "next run"); err != nil {
		t.Fatalf("persisted pin rejected identical counts: %v", err)
	}
	drift := c
	drift.VirtualTime = 12.500000001
	if err := again.check(drift, "drifted"); err == nil {
		t.Fatal("a drifted virtual time passed the pin")
	}
}

func TestCountingTransportCountsExactly(t *testing.T) {
	c := &wireCounters{}
	raw := transport.NewChanNetwork(2)
	a := &countingTransport{Transport: raw[0], c: c, timed: true}
	b := &countingTransport{Transport: raw[1], c: c, timed: true}
	defer a.Close()
	defer b.Close()
	ctx := context.Background()

	wave := transport.Packet{Kind: transport.KindWave, FromPart: 0, ToPart: 1,
		Entries: []transport.WaveEntry{{LinkID: 1, Wave: 0.5}, {LinkID: 2, Wave: -1}, {LinkID: 7, Wave: 3}}}
	ctrl := transport.Packet{Kind: transport.KindControl, Ctrl: []byte(`{}`)}
	if c.firstWave.Load() != nil {
		t.Fatal("first wave marked before any send")
	}
	if err := a.Send(ctx, 1, ctrl); err != nil {
		t.Fatal(err)
	}
	if c.firstWave.Load() != nil {
		t.Fatal("a control packet marked the first wave")
	}
	for i := 0; i < 5; i++ {
		wave.Seq = uint64(i + 1)
		if err := a.Send(ctx, 1, wave); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Send(ctx, 0, ctrl); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, 0, ctrl); err == nil {
		t.Fatal("send to self succeeded")
	}
	for i := 0; i < 6; i++ {
		if _, err := b.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Recv(ctx); err != nil {
		t.Fatal(err)
	}

	if c.firstWave.Load() == nil {
		t.Error("first wave not marked")
	}
	for name, got := range map[string]int64{
		"wave packets": c.wavePackets.Load(), "wave entries": c.waveEntries.Load(),
		"ctrl packets": c.ctrlPackets.Load(), "send errors": c.sendErrors.Load(),
		"a sends": a.sends.Load(), "b sends": b.sends.Load(),
		"a recvs": a.recvs.Load(), "b recvs": b.recvs.Load(),
	} {
		want := map[string]int64{
			"wave packets": 5, "wave entries": 15, "ctrl packets": 3, "send errors": 1,
			"a sends": 7, "b sends": 1, "a recvs": 1, "b recvs": 6,
		}[name]
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// runBench runs the command in-process and decodes its last line.
func runBench(t *testing.T, args ...string) report {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append(args, "--state", t.TempDir())
	code := run(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatalf("%v: last line %q: %v\nstderr:\n%s", args, lines[len(lines)-1], err, errOut.String())
	}
	if code != 0 || !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%v: exit %d, report %+v\nstderr:\n%s", args, code, rep, errOut.String())
	}
	return rep
}

func TestEveryWorkloadCompletesAShortTracedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep := runBench(t, "--workload", w.name, "--seconds", "0", "--trace", "1")
			for _, m := range perLayer {
				got, ok := rep.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
				}
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(perLayer))
			}
			solves := rep.Metrics["core.solves"].Value
			if !(solves > 0) {
				t.Errorf("core.solves = %v", solves)
			}
		})
	}
}

func TestTimedRunReportsEndToEndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every instance of a workload")
	}
	rep := runBench(t, "--workload", "des-faults", "--seconds", "0", "--trace", "0")
	for _, want := range endToEnd {
		if m, ok := rep.Metrics[want.name]; !ok || !(m.Value > 0) || m.Unit != want.unit {
			t.Errorf("%s: got %+v", want.name, m)
		}
	}
	if len(rep.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(endToEnd))
	}
}

// TestBenchmarkJSONListsTheReportedMetrics keeps the repository's
// BENCHMARK.json and the metrics the command prints in step.
func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		run     string
		listed  []struct{ Name, Unit string }
		printed []struct{ name, unit string }
	}{{"timed", spec.EndToEnd, endToEnd}, {"traced", spec.PerLayer, perLayer}} {
		if len(c.listed) != len(c.printed) {
			t.Errorf("BENCHMARK.json lists %d metrics, the %s run prints %d", len(c.listed), c.run, len(c.printed))
			continue
		}
		for i, m := range c.listed {
			if m.Name != c.printed[i].name || m.Unit != c.printed[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s (%s), the %s run prints %s (%s)",
					i, m.Name, m.Unit, c.run, c.printed[i].name, c.printed[i].unit)
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
