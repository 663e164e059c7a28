// Command dtmperf is the repository's benchmark: time to a checked DTM
// solution on four workloads, end to end, with a separate traced run that
// splits each solve into its layers. See README.md for the workloads, the
// metrics and how to run it; run.sh builds it from source and runs it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// probesPerSolve is how many set-up probes follow each full DES solve, so
// set-up is sampled several times more often than the long solves.
const probesPerSolve = 4

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runContext records where and on what a run was measured.
type runContext struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Sources      []string `json:"sources"`
	Topology     string   `json:"topology"`
	Faults       []string `json:"faults,omitempty"`
	GoVersion    string   `json:"go_version"`
	NumCPU       int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	CPUModel     string   `json:"cpu_model"`
	SourceDigest string   `json:"source_digest"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("dtmperf", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "des-fine", "workload to run")
	seed := fl.Int64("seed", defaultSeed, "workload seed; the default reproduces the documented specs")
	seconds := fl.Float64("seconds", 20, "how long to measure")
	trace := fl.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	state := fl.String("state", ".bench_build", "directory for span files and pinned DES counts")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "dtmperf:", err)
		return 2
	}
	digest, err := sourceDigest(".")
	if err != nil {
		fmt.Fprintln(stderr, "dtmperf: hashing the sources:", err)
		return 1
	}
	// The traced run splits the first instance into its layers; the timed
	// run averages over several.
	n := w.instances
	if *trace == 1 {
		n = 1
	}
	b, err := newBench(w, *seed, n, *state, digest)
	if err != nil {
		fmt.Fprintln(stderr, "dtmperf:", err)
		return 1
	}
	rc := runContext{
		Workload: w.name, Seed: *seed, Topology: b.insts[0].spec.Topology,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), SourceDigest: digest,
	}
	for j, in := range b.insts {
		rc.Sources = append(rc.Sources, in.spec.Source)
		if f := w.faultString(generatorOffset(*seed, j)); f != "" {
			rc.Faults = append(rc.Faults, f)
		}
	}
	ctxLine, _ := json.Marshal(rc)
	fmt.Fprintf(stderr, "context %s\n", ctxLine)

	budget := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *trace == 1 {
		path := filepath.Join(*state, "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		rep = b.traced(budget, rc, path, stderr)
	} else {
		rep = b.timed(budget, stderr)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "dtmperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// tally collects the outcomes of a run.
type tally struct {
	attempted, failed int
	setups            []interval
	solved            []outcome
	stderr            io.Writer
}

func (t *tally) add(o outcome, keep bool) {
	t.attempted++
	if o.err != nil {
		t.failed++
		fmt.Fprintf(t.stderr, "dtmperf: solve %d failed: %v\n", t.attempted, o.err)
		return
	}
	if keep {
		t.solved = append(t.solved, o)
		t.setups = append(t.setups, o.setup)
	}
}

func (t *tally) addProbe(d interval, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.stderr, "dtmperf: set-up probe failed: %v\n", err)
		return
	}
	t.setups = append(t.setups, d)
}

// setupCPU returns the median set-up CPU time over every sample.
func (t *tally) setupCPU() float64 {
	xs := make([]float64, len(t.setups))
	for i, d := range t.setups {
		xs[i] = d.cpu.Seconds()
	}
	return median(xs)
}

// of returns the median over instances of the median of f over each
// instance's kept solves.
func (t *tally) of(f func(o *outcome) float64) float64 {
	byInst := map[int][]float64{}
	for i := range t.solved {
		o := &t.solved[i]
		byInst[o.inst] = append(byInst[o.inst], f(o))
	}
	var meds []float64
	for _, xs := range byInst {
		meds = append(meds, median(xs))
	}
	return median(meds)
}

// measure runs solves round robin over the instances (and, on DES untraced,
// set-up probes) back to back for the budget, and at least once on every
// instance.
func (b *bench) measure(t *tally, budget time.Duration, tr *tracer) {
	deadline := time.Now().Add(budget)
	for i := 0; ; i++ {
		in := i % len(b.insts)
		t.add(b.solve(in, tr), true)
		if tr == nil && !b.w.distributed {
			for k := 0; k < probesPerSolve; k++ {
				t.addProbe(b.insts[in].probe())
			}
		}
		if i+1 >= len(b.insts) && !time.Now().Before(deadline) {
			return
		}
	}
}

func (t *tally) report(metrics map[string]metric) *report {
	if metrics == nil {
		metrics = map[string]metric{}
	}
	return &report{
		Correct:   t.failed == 0 && len(t.solved) > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   metrics,
	}
}

// timed is the untraced run: one warm-up solve (checked, not timed), then
// the measured closed loop, reporting the end-to-end metrics.
func (b *bench) timed(budget time.Duration, stderr io.Writer) *report {
	t := &tally{stderr: stderr}
	t.add(b.solve(0, nil), false)
	b.measure(t, budget, nil)
	fmt.Fprintf(stderr, "timed: %d solves, %d set-up samples\n", len(t.solved), len(t.setups))
	for _, o := range t.solved {
		fmt.Fprintf(stderr, "  instance %d: setup %.4fs (wall %.4fs) solve %.4fs (wall %.4fs) alloc %.1fMB\n",
			o.inst, o.setup.cpu.Seconds(), o.setup.wall.Seconds(), o.solve.cpu.Seconds(), o.solve.wall.Seconds(), float64(o.alloc)/1e6)
	}
	values := map[string]float64{
		"setup_s":  t.setupCPU(),
		"solve_s":  t.of(func(o *outcome) float64 { return o.solve.cpu.Seconds() }),
		"alloc_mb": t.of(func(o *outcome) float64 { return float64(o.alloc) / 1e6 }),
	}
	metrics := map[string]metric{}
	for _, m := range endToEnd {
		metrics[m.name] = metric{values[m.name], m.unit}
	}
	return t.report(metrics)
}

// traced is the traced run: a warm-up, an untraced half of the budget and a
// traced half (their difference is the tracing overhead), a DES solve at
// GOMAXPROCS=1 whose counts must match, and the replays of the layers that
// run inside core.Solve or inside the dist members. It reports the per-layer
// metrics and writes the spans to spanPath.
func (b *bench) traced(budget time.Duration, rc runContext, spanPath string, stderr io.Writer) *report {
	untraced := &tally{stderr: stderr}
	untraced.add(b.solve(0, nil), false)
	b.measure(untraced, budget/2, nil)

	tr := newTracer()
	t := &tally{stderr: stderr, attempted: untraced.attempted, failed: untraced.failed}
	b.measure(t, budget/2, tr)
	if !b.w.distributed {
		prev := runtime.GOMAXPROCS(1)
		t.add(b.solve(0, tr), false)
		runtime.GOMAXPROCS(prev)
	}
	if len(t.solved) == 0 || len(untraced.solved) == 0 {
		return t.report(nil)
	}

	layers := map[string]float64{}
	for k := range t.solved[0].layers {
		layers[k] = t.of(func(o *outcome) float64 { return o.layers[k] })
	}
	// Replay what runs out of reach of the benchmark's spans: the members'
	// builds inside dist, and the factor and local-solve layers inside
	// core.Solve.
	root := tr.begin("replay", 0)
	in := b.insts[0]
	p, built, err := in.build(tr, root)
	var fl *factorLayer
	if err == nil {
		fl, err = replayFactor(tr, root, p)
	}
	tr.end(root)
	if err != nil {
		t.failed++
		fmt.Fprintln(stderr, "dtmperf: replay:", err)
		return t.report(nil)
	}
	solveS := t.of(func(o *outcome) float64 { return o.solve.cpu.Seconds() })
	weights := make([]float64, p.Partition.NumParts())
	if b.w.distributed {
		// dist reports only the total; spread it evenly over the parts.
		for k, v := range built {
			layers[k] = v
		}
		for i := range weights {
			weights[i] = layers["core.solves"] / float64(len(weights))
		}
	} else {
		for i, c := range t.solved[0].perPart {
			weights[i] = float64(c)
		}
	}
	for k, v := range fl.layers(weights) {
		layers[k] = v
	}
	self := "core.engine_self_s"
	if b.w.distributed {
		self = "dist.self_s"
	}
	layers[self] = solveS - layers["core.local_solve_s"]
	layers["runtime.gc_cycles"] = t.of(func(o *outcome) float64 { return float64(o.gcCycles) })
	layers["runtime.gc_pause_s"] = t.of(func(o *outcome) float64 { return o.gcPause.Seconds() })
	layers["wall.setup_s"] = t.of(func(o *outcome) float64 { return o.setup.wall.Seconds() })
	layers["wall.solve_s"] = t.of(func(o *outcome) float64 { return o.solve.wall.Seconds() })
	direct, err := directBaseline(tr, in.sys, in.ref)
	if err != nil {
		t.failed++
		fmt.Fprintln(stderr, "dtmperf:", err)
		return t.report(nil)
	}
	layers["ref.direct_s"] = direct.Seconds()
	cpu := func(o *outcome) float64 { return (o.setup.cpu + o.solve.cpu).Seconds() }
	plain := untraced.of(cpu)
	layers["trace.overhead_s"] = t.of(cpu) - plain
	layers["trace.overhead_frac"] = layers["trace.overhead_s"] / plain

	if err := tr.write(spanPath, rc); err != nil {
		fmt.Fprintln(stderr, "dtmperf:", err)
	}
	backends := map[string]int{}
	for _, name := range fl.backends {
		backends[name]++
	}
	fmt.Fprintf(stderr, "traced: %d traced and %d untraced solves; parts per local solver %v; spans in %s\n",
		len(t.solved), len(untraced.solved), backends, spanPath)
	metrics := map[string]metric{}
	for _, m := range perLayer {
		// A layer a workload bypasses reports 0.
		metrics[m.name] = metric{layers[m.name], m.unit}
	}
	return t.report(metrics)
}

// sourceDigest hashes the checkout's Go sources and module files: the run
// context's stand-in for a commit id (the checkout need not be a git
// repository), and the key pinned DES counts are stored under.
func sourceDigest(root string) (string, error) {
	h := fnv.New64a()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".s") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	return fmt.Sprintf("%016x", h.Sum64()), err
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
