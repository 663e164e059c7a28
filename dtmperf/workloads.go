package main

import (
	"fmt"

	"repro/internal/dist"
)

// defaultSeed is the --seed value whose first instance reproduces the specs
// documented in README.md.
const defaultSeed = 1

// maxInstances bounds workload.instances. Instance j of seed s uses
// generator offset maxInstances·(s−defaultSeed)+j on every seeded generator —
// the grid values, the spanner's points and the fault streams — while the
// machines (mesh4x4, mesh8x8, the yao fabric) stay fixed.
const maxInstances = 8

// generatorOffset is the offset instance j of a seed adds to every default
// generator seed.
func generatorOffset(seed int64, j int) int64 {
	return maxInstances*(seed-defaultSeed) + int64(j)
}

// tol is the quiescence tolerance of every solve.
const tol = 1e-9

// workload is one problem, machine and engine the benchmark runs.
type workload struct {
	name string
	// spec tears the problem at a generator offset; its Source carries the
	// seeded generator.
	spec func(off int64) dist.SpecV2
	// faults, when non-nil, is the chaos spec of a faulted DES run at a
	// generator offset.
	faults func(off int64) string
	// distributed selects the coordinator + in-process workers path instead
	// of the DES engine.
	distributed bool
	// instances is how many problem instances of a seed a timed run solves
	// round robin. A run reports the median over its instances, so one
	// unusually hard or easy instance does not set a run's figures.
	instances int
}

func gridSpec(side int, defaultGridSeed int64, px, py int, topo string) func(int64) dist.SpecV2 {
	return func(off int64) dist.SpecV2 {
		return dist.SpecV2{
			V:      2,
			Source: fmt.Sprintf("grid:rows=%d,cols=%d,seed=%d", side, side, defaultGridSeed+off),
			PartsX: px, PartsY: py,
			Topology: topo,
		}
	}
}

var workloads = []workload{
	{
		name:      "des-coarse",
		spec:      gridSpec(65, 4225, 2, 2, "mesh4x4"),
		instances: 4,
	},
	{
		name:      "des-fine",
		spec:      gridSpec(33, 1089, 8, 8, "mesh8x8"),
		instances: 4,
	},
	{
		name: "des-faults",
		spec: gridSpec(33, 1089, 8, 8, "mesh8x8"),
		faults: func(off int64) string {
			return fmt.Sprintf("drop=0.05,dup=0.02,jitter=0.5,crash=27@500+250,seed=%d", 7+off)
		},
		instances: 4,
	},
	{
		name: "dist-spanner",
		spec: func(off int64) dist.SpecV2 {
			return dist.SpecV2{
				V:        2,
				Source:   fmt.Sprintf("spanner:n=4000,k=6,seed=%d,leak=0.05", 1+off),
				NParts:   16,
				Topology: "yao:n=16,k=6,seed=1108",
			}
		},
		distributed: true,
		instances:   6,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// faultString returns the workload's fault spec at a generator offset, or ""
// when the workload runs clean.
func (w workload) faultString(off int64) string {
	if w.faults == nil {
		return ""
	}
	return w.faults(off)
}
