package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"testing"

	"optipart"
)

// manifest is the part of BENCHMARK.json the self-test compares against
// the metric catalogue.
type manifest struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCatalogue pins BENCHMARK.json to the metrics the
// command emits: same workloads, same names, units and directions.
func TestManifestMatchesCatalogue(t *testing.T) {
	m := readManifest(t)
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	compare := func(kind string, got []struct{ Name, Unit, Better string }, cat []metric) {
		if len(got) != len(cat) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, catalogue %d", kind, len(got), len(cat))
			return
		}
		for i, g := range got {
			c := cat[i]
			if g.Name != c.Name || g.Unit != c.Unit || g.Better != c.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalogue %+v", kind, i, g, c)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd)
	compare("per_layer", m.PerLayer, perLayer)
}

// TestEveryMetricEmitted runs every workload at self-test size, untraced
// and traced, and checks that each run is correct and prints exactly the
// catalogue's metrics — the end-to-end ones never zero.
func TestEveryMetricEmitted(t *testing.T) {
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, seconds: 0.3, trace: traced, tiny: true, out: t.TempDir()}
			res, err := execute(cfg, run)
			if err != nil || !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: err %v, result %+v", name, traced, err, res)
			}
			cat := endToEnd
			if traced {
				cat = perLayer
			}
			if len(res.Metrics) != len(cat) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(cat))
			}
			for _, m := range cat {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, want %s", name, traced, m.Name, v.Unit, m.Unit)
				case !traced && !(v.Value > 0):
					t.Errorf("%s: end-to-end metric %s is %v", name, m.Name, v.Value)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.out + "/" + name + "-seed7-trace1.spans.json"); err != nil {
					t.Errorf("%s: span file: %v", name, err)
				}
			}
		}
	}
}

// TestCheckerRejectsPerturbedPlacement builds a real placement, checks that
// it passes, then perturbs it in each way the checks guard against.
func TestCheckerRejectsPerturbedPlacement(t *testing.T) {
	const p, n = 4, 512
	curve := optipart.NewCurve(optipart.Hilbert, 3)
	m := optipart.Clemson32()
	locals := make([][]optipart.Key, p)
	var sp *optipart.Splitters
	var q optipart.Quality
	var tp float64
	optipart.Run(p, m, func(c *optipart.Comm) {
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 1))
		keys := optipart.RandomKeys(rng, n, 3, optipart.Normal, 2, 18)
		res := optipart.Partition(c, keys, optipart.Options{Curve: curve, Mode: optipart.ModelDriven, Machine: m})
		locals[c.Rank()] = res.Local
		if c.Rank() == 0 {
			sp, q, tp = res.Splitters, res.Quality, res.Predicted
		}
	})
	if err := checkPlacement(sp, locals, p*n); err != nil {
		t.Fatalf("unperturbed placement rejected: %v", err)
	}
	clone := func() [][]optipart.Key {
		out := make([][]optipart.Key, p)
		for r := range locals {
			out[r] = slices.Clone(locals[r])
		}
		return out
	}

	moved := clone()
	moved[0] = append(moved[0], moved[1][0])
	moved[1] = moved[1][1:]
	if checkPlacement(sp, moved, p*n) == nil {
		t.Error("an element moved to the wrong rank passed")
	}
	dropped := clone()
	dropped[2] = dropped[2][:len(dropped[2])-1]
	if checkPlacement(sp, dropped, p*n) == nil {
		t.Error("a placement missing an element passed")
	}
	unsorted := clone()
	u := unsorted[3]
	u[0], u[len(u)-1] = u[len(u)-1], u[0]
	if checkPlacement(sp, unsorted, p*n) == nil {
		t.Error("an unsorted rank passed")
	}
	swapped := &optipart.Splitters{Curve: curve, Seps: slices.Clone(sp.Seps)}
	swapped.Seps[0], swapped.Seps[2] = swapped.Seps[2], swapped.Seps[0]
	if checkPlacement(swapped, locals, p*n) == nil {
		t.Error("separators out of curve order passed")
	}

	counts := make([]int, p)
	for r, l := range locals {
		counts[r] = len(l)
	}
	if err := checkCounts(curve, sp.Seps, counts, p*n, q, tp); err != nil {
		t.Fatalf("unperturbed counts rejected: %v", err)
	}
	bad := slices.Clone(counts)
	most := slices.Index(counts, slices.Max(counts))
	bad[most]++
	bad[(most+1)%p]--
	if checkCounts(curve, sp.Seps, bad, p*n, q, tp) == nil {
		t.Error("an element shifted onto the heaviest rank passed")
	}
	bad = slices.Clone(counts)
	bad[3]--
	if checkCounts(curve, sp.Seps, bad, p*n, q, tp) == nil {
		t.Error("counts that lose an element passed")
	}
}
