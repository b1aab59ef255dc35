package optipart_test

// One benchmark per table/figure of the paper (regeneration targets run the
// experiment drivers at smoke size; the full-size runs are
// `go run ./cmd/experiments -run figN`), plus microbenchmarks for the hot
// paths and the ablation benches called out in DESIGN.md.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"optipart"
	"optipart/internal/comm"
	"optipart/internal/experiments"
	"optipart/internal/machine"
	"optipart/internal/mesh"
	"optipart/internal/octree"
	"optipart/internal/partition"
	"optipart/internal/psort"
	"optipart/internal/sfc"
	"optipart/internal/sim"
)

// --- Figure regeneration benches -----------------------------------------

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, experiments.Config{Out: io.Discard, Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig02LevelTradeoff(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig03RefinementCases(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig04StrongScaling(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig05WeakScaling(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig06VsSampleSort(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig07ToleranceSweep(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig08ToleranceSweep(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig09PerNodeEnergy(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10ModelValidation(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11Imbalance(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12CommMatrix(b *testing.B)      { benchExperiment(b, "fig12") }
func BenchmarkHeadline(b *testing.B)             { benchExperiment(b, "headline") }

// --- Microbenchmarks ------------------------------------------------------

func benchKeys(n int) []sfc.Key {
	rng := rand.New(rand.NewSource(1))
	return octree.RandomKeys(rng, n, 3, octree.Normal, 2, 18)
}

func BenchmarkTreeSortMorton(b *testing.B) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	keys := benchKeys(1 << 16)
	work := make([]sfc.Key, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, keys)
		psort.TreeSort(curve, work)
	}
	b.SetBytes(int64(len(keys) * psort.KeyBytes))
}

func BenchmarkTreeSortHilbert(b *testing.B) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	keys := benchKeys(1 << 16)
	work := make([]sfc.Key, len(keys))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, keys)
		psort.TreeSort(curve, work)
	}
	b.SetBytes(int64(len(keys) * psort.KeyBytes))
}

func BenchmarkHilbertIndex(b *testing.B) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	keys := benchKeys(1024)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += curve.Index(keys[i%len(keys)])
	}
	_ = sink
}

func BenchmarkMortonIndex(b *testing.B) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	keys := benchKeys(1024)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += curve.Index(keys[i%len(keys)])
	}
	_ = sink
}

func BenchmarkHilbertRank(b *testing.B) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	keys := benchKeys(1024)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += curve.Rank(keys[i%len(keys)]).Lo
	}
	_ = sink
}

// BenchmarkHilbertFaceSpan prices one element's neighbor span, the
// selector's per-element fill for Algorithm 2: the fused kernel (one
// descent, each face neighbor resumed from the element's saved state)
// against ranking the element and its six face neighbors from the root.
func BenchmarkHilbertFaceSpan(b *testing.B) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	keys := benchKeys(1024)
	b.Run("fused", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			_, lo, hi := curve.FaceSpan(keys[i%len(keys)])
			sink += lo.Lo ^ hi.Lo
		}
		_ = sink
	})
	b.Run("rank7", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			sink += curve.Rank(k).Lo
			for _, f := range octree.Faces(3) {
				if nk, ok := octree.FaceNeighbor(k, f); ok {
					sink += curve.Rank(nk).Lo
				}
			}
		}
		_ = sink
	})
}

func BenchmarkMortonRank(b *testing.B) {
	curve := sfc.NewCurve(sfc.Morton, 3)
	keys := benchKeys(1024)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += curve.Rank(keys[i%len(keys)]).Lo
	}
	_ = sink
}

func BenchmarkBalance21(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tree := octree.AdaptiveMesh(rng, 500, 3, octree.Normal, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		octree.Balance21(tree)
	}
}

// benchInputs generates p per-rank inputs of n keys once and returns a run
// that copies them into reused buffers with b's timer stopped, then times
// body on a p-rank Clemson-32 world, each rank with its fresh copy. The
// benchmark thus prices the algorithm, not the input generator, and body
// may sort its input in place.
func benchInputs(p, n int) func(b *testing.B, body func(c *comm.Comm, local []sfc.Key)) {
	inputs := make([][]sfc.Key, p)
	work := make([][]sfc.Key, p)
	for r := range inputs {
		inputs[r] = octree.RandomKeys(rand.New(rand.NewSource(int64(r))), n, 3, octree.Normal, 2, 18)
		work[r] = make([]sfc.Key, n)
	}
	cost := machine.Clemson32().CostModel()
	return func(b *testing.B, body func(c *comm.Comm, local []sfc.Key)) {
		b.StopTimer()
		for r := range work {
			copy(work[r], inputs[r])
		}
		b.StartTimer()
		comm.Run(p, cost, func(c *comm.Comm) { body(c, work[c.Rank()]) })
	}
}

func benchPartition(b *testing.B, mode partition.Mode, kmax int) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	m := machine.Clemson32()
	run := benchInputs(16, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(b, func(c *comm.Comm, local []sfc.Key) {
			partition.Partition(c, local, partition.Options{
				Curve: curve, Mode: mode, Tol: 0.3, Machine: m, MaxSplitters: kmax,
			})
		})
	}
}

func BenchmarkPartitionEqualWork(b *testing.B) { benchPartition(b, partition.EqualWork, 0) }
func BenchmarkPartitionFlexible(b *testing.B)  { benchPartition(b, partition.FlexibleTolerance, 0) }
func BenchmarkPartitionOptiPart(b *testing.B)  { benchPartition(b, partition.ModelDriven, 0) }

func BenchmarkSampleSortBaseline(b *testing.B) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	run := benchInputs(16, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(b, func(c *comm.Comm, local []sfc.Key) {
			psort.SampleSort(c, local, psort.SampleSortOptions{Curve: curve})
		})
	}
}

// BenchmarkRepartitionStep drives the serial incremental engine through an
// evolving mesh (the same moving-front adaptivity as `experiments -run
// repart`). warm applies each step's edit script — only refined/coarsened
// subtrees re-rank, every other element keeps its cached curve rank — while
// cold re-ingests the full mesh every step (Rebuild, the no-rank-cache
// baseline). Both warm-start placement selection from the prior, so the
// timing difference isolates the rank-cache reuse; moved-bytes/op records
// the migration traffic of the adopted placements.
func BenchmarkRepartitionStep(b *testing.B) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	m := machine.Titan()
	start := octree.Balance21(octree.AdaptiveMesh(
		rand.New(rand.NewSource(7)), 800, 3, octree.Normal, 8)).WithCurve(curve).Leaves
	cfg := partition.RepartConfig{Curve: curve, P: 16, Machine: m, Tol: 0.03, Horizon: 240}
	newFront := func() *octree.Evolver {
		ev := octree.NewEvolver(curve, 11, start)
		ev.RefineBias, ev.CoarsenBias = octree.FrontBias(3, 2, 8, 0.1)
		return ev
	}

	b.Run("warm", func(b *testing.B) {
		e := partition.NewRepartitioner(cfg)
		e.Seed(start)
		ev := newFront()
		var movedBytes int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := e.Step(ev.Step(0.002, 0.0025))
			movedBytes += res.MovedBytes
		}
		b.ReportMetric(float64(movedBytes)/float64(b.N), "moved-bytes/op")
	})

	b.Run("cold", func(b *testing.B) {
		e := partition.NewRepartitioner(cfg)
		e.Seed(start)
		ev := newFront()
		var movedBytes int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Step(0.002, 0.0025)
			res := e.Rebuild(ev.Leaves(), e.Splitters())
			movedBytes += res.MovedBytes
		}
		b.ReportMetric(float64(movedBytes)/float64(b.N), "moved-bytes/op")
	})
}

func BenchmarkMatvec(b *testing.B) {
	curve := optipart.NewCurve(optipart.Hilbert, 3)
	m := optipart.Wisconsin8()
	tree := optipart.Balance21(optipart.AdaptiveMesh(
		rand.New(rand.NewSource(3)), 400, 3, optipart.Normal, 7)).WithCurve(curve)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optipart.Run(8, m, func(c *optipart.Comm) {
			var local []optipart.Key
			for j, k := range tree.Leaves {
				if j%8 == c.Rank() {
					local = append(local, k)
				}
			}
			res := optipart.Partition(c, local, optipart.Options{
				Curve: curve, Mode: optipart.EqualWork, Machine: m,
			})
			prob := optipart.SetupPoisson(c, res.Local, res.Splitters)
			optipart.RunMatvecs(c, prob, 10, 1)
		})
	}
}

func BenchmarkGhostBuild(b *testing.B) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	m := machine.Wisconsin8()
	tree := octree.Balance21(octree.AdaptiveMesh(
		rand.New(rand.NewSource(4)), 400, 3, octree.Normal, 7)).WithCurve(curve)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		comm.Run(8, m.CostModel(), func(c *comm.Comm) {
			var local []sfc.Key
			for j, k := range tree.Leaves {
				if j%8 == c.Rank() {
					local = append(local, k)
				}
			}
			res := partition.Partition(c, local, partition.Options{
				Curve: curve, Mode: partition.EqualWork, Machine: m,
			})
			mesh.Build(c, res.Local, res.Splitters, 1)
		})
	}
}

// --- Worker-pool benches (serial vs parallel kernels) ----------------------

// benchWorkerCounts is the width matrix for the serial-vs-parallel benches:
// always 1 (the serial baseline — the exact pre-pool code path), plus 4 (the
// speedup gate width) and the host's GOMAXPROCS when they differ.
// OPTIPART_BENCH_WORKERS overrides the matrix with an explicit
// comma-separated list; that is how scripts/bench_baseline_5.txt pins its
// capture configuration.
func benchWorkerCounts(b *testing.B) []int {
	b.Helper()
	if s := os.Getenv("OPTIPART_BENCH_WORKERS"); s != "" {
		var ws []int
		for _, f := range strings.Split(s, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || w < 1 {
				b.Fatalf("OPTIPART_BENCH_WORKERS=%q: want comma-separated widths >= 1", s)
			}
			ws = append(ws, w)
		}
		return ws
	}
	ws := []int{1}
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		seen := false
		for _, have := range ws {
			seen = seen || have == w
		}
		if !seen {
			ws = append(ws, w)
		}
	}
	return ws
}

// BenchmarkTreeSortLarge sorts 2^20 keys — far past the parallel cutoff, so
// the workers>1 widths exercise the parallel MSD radix sort while workers=1
// runs the serial rank sort the goldens were recorded against.
func BenchmarkTreeSortLarge(b *testing.B) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	keys := benchKeys(1 << 20)
	work := make([]sfc.Key, len(keys))
	for _, w := range benchWorkerCounts(b) {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := optipart.SetWorkers(w)
			defer optipart.SetWorkers(prev)
			// One untimed op after the width switch: lets the GC pacer adapt
			// to this width's allocation profile before measurement starts.
			copy(work, keys)
			psort.TreeSort(curve, work)
			b.SetBytes(int64(len(keys) * psort.KeyBytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, keys)
				psort.TreeSort(curve, work)
			}
		})
	}
}

// BenchmarkPartitionE2E is the end-to-end partition at a per-rank size past
// the parallel cutoffs, so sort, splitter refinement, and bucketing all take
// their pooled paths at workers>1. Modeled costs are identical at every
// width (TestModeledCostEquivalence); only host wall-clock may differ. The
// inputs are generated once; each run partitions a fresh copy of them
// (Partition sorts in place), made outside the timed region.
func BenchmarkPartitionE2E(b *testing.B) {
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	m := machine.Clemson32()
	run := benchInputs(16, 1<<15)
	op := func(b *testing.B) {
		run(b, func(c *comm.Comm, local []sfc.Key) {
			partition.Partition(c, local, partition.Options{
				Curve: curve, Mode: partition.EqualWork, Tol: 0.3, Machine: m,
			})
		})
	}
	for _, w := range benchWorkerCounts(b) {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := optipart.SetWorkers(w)
			defer optipart.SetWorkers(prev)
			op(b) // untimed warm-up after the width switch (GC pacer, pools)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(b)
			}
		})
	}
}

// --- Ablations (DESIGN.md design decisions) --------------------------------

// BenchmarkAblationStagedAlltoall compares the staged exchange against the
// unstaged burst on the modeled clock (reported as ns/op of harness time;
// the interesting output is printed modeled seconds, captured in
// EXPERIMENTS.md).
func BenchmarkAblationStagedAlltoall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, width := range []int{1, 15} {
			comm.Run(16, machine.Titan().CostModel(), func(c *comm.Comm) {
				send := make([][]int64, 16)
				for dst := range send {
					send[dst] = make([]int64, 2048)
				}
				comm.Alltoallv(c, send, 8, comm.AlltoallvOptions{StageWidth: width})
			})
		}
	}
}

// BenchmarkAblationSplitterRefinement compares full splitter reductions
// (k = p) against staged ones (k << p).
func BenchmarkAblationSplitterRefinement(b *testing.B) {
	b.Run("k=p", func(b *testing.B) { benchPartition(b, partition.EqualWork, 0) })
	b.Run("k=4", func(b *testing.B) { benchPartition(b, partition.EqualWork, 4) })
}

// BenchmarkAblationModelStop compares the model-driven stop against fixed
// tolerances: the work OptiPart saves by not over-refining.
func BenchmarkAblationModelStop(b *testing.B) {
	b.Run("model", func(b *testing.B) { benchPartition(b, partition.ModelDriven, 0) })
	b.Run("tol=0", func(b *testing.B) { benchPartition(b, partition.EqualWork, 0) })
	b.Run("tol=0.3", func(b *testing.B) { benchPartition(b, partition.FlexibleTolerance, 0) })
}

// BenchmarkAnalyticModel exercises the paper-scale analytic executor.
func BenchmarkAnalyticModel(b *testing.B) {
	m := machine.Titan()
	ps := []int{16, 256, 4096, 65536, 262144}
	for i := 0; i < b.N; i++ {
		sim.WeakScaling(m, 1_000_000, ps, sim.Config{})
	}
}
