package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"optipart"
	"optipart/internal/comm"
	"optipart/internal/octree"
	"optipart/internal/psort"
)

// amr-loop: one online-AMR regrid per op on 16 in-process ranks under the
// Titan model: Balance21 on the step's mesh, Repartition from the prior
// placement (tol 0.03, horizon 240, migration exchange included), then
// BuildGhost. The refine/coarsen histories are the moving front of
// `experiments -run repart` on several independent meshes, precomputed in
// setup. A cycle walks every mesh's history, each from the same initial
// placement, so every cycle repeats exactly.

type amrSize struct {
	ranks, meshes, leaves, steps int
	depth                        uint8
}

func (b *bench) amrSize() amrSize {
	if b.cfg.tiny {
		return amrSize{ranks: 4, meshes: 2, leaves: 100, steps: 2, depth: 5}
	}
	return amrSize{ranks: 16, meshes: 8, leaves: 1100, steps: 3, depth: 7}
}

// adaptiveMesh refines around as many seed points drawn from seed as it
// takes to reach at least leaves leaves (before balancing), so meshes from
// different seeds have nearly the same size.
func adaptiveMesh(seed int64, leaves int, depth uint8) *optipart.Tree {
	for n := 2; ; n += 2 {
		t := optipart.AdaptiveMesh(rand.New(rand.NewSource(seed)), n, 3, optipart.Normal, depth)
		if len(t.Leaves) >= leaves {
			return t
		}
	}
}

// amrFront is one mesh's precomputed history and initial placement.
type amrFront struct {
	history []*optipart.Tree // history[s] is the mesh after s+1 evolver steps
	sp0     *optipart.Splitters
}

const (
	amrTol     = 0.03
	amrHorizon = 240
)

func runAMR(b *bench) error {
	sz := b.amrSize()
	curve := optipart.NewCurve(optipart.Hilbert, 3)
	m := optipart.Titan()
	p := sz.ranks

	var fronts []amrFront
	if err := b.setupRepeat(func() error {
		fronts = fronts[:0]
		for f := 0; f < sz.meshes; f++ {
			seed := b.cfg.seed*int64(sz.meshes) + int64(f)
			start := optipart.Balance21(adaptiveMesh(seed, sz.leaves, sz.depth)).WithCurve(curve).Leaves
			ev := optipart.NewEvolver(curve, seed+5, start)
			ev.RefineBias, ev.CoarsenBias = optipart.FrontBias(3, 2, 8, 0.1)
			var fr amrFront
			for s := 0; s < sz.steps; s++ {
				ev.Step(0.008, 0.010)
				fr.history = append(fr.history, octree.New(curve, append([]optipart.Key(nil), ev.Leaves()...)))
			}
			// The initial placement: model-driven OptiPart on the start mesh.
			optipart.Run(p, m, func(c *optipart.Comm) {
				var local []optipart.Key
				for i, k := range start {
					if i%p == c.Rank() {
						local = append(local, k)
					}
				}
				res := optipart.Partition(c, local, optipart.Options{Curve: curve, Mode: optipart.ModelDriven, Machine: m, SkipExchange: true})
				if c.Rank() == 0 {
					fr.sp0 = res.Splitters
				}
			})
			fronts = append(fronts, fr)
		}
		return nil
	}); err != nil {
		return err
	}
	cycle := sz.meshes * sz.steps

	rr := make([]*optipart.RepartResult, p)
	ghosts := make([]*optipart.Ghost, p)
	var prior *optipart.Splitters
	var cycleDigest digest
	var refDigest []digest         // per cycle position, from the reference (warm-up) cycle
	refColls := make([]int, cycle) // collectives per cycle position, counted in the warm-up cycle
	var rounds, colls, bytes, msgs, wallOverModel, leaves, kept, moved, movedMiB, ghostCount, sendVol samples

	// op runs cycle position pos (step s of front f) as global op i.
	op := func(i, pos int, tr *tracer, check bool) (time.Duration, error) {
		f, s := pos/sz.steps, pos%sz.steps
		fr := fronts[f]
		if s == 0 {
			prior = fr.sp0
			cycleDigest = digestInit
		}
		root := tr.begin("op amr-loop", -1, i, -1)
		t0 := time.Now()

		sb := tr.begin("optipart.Balance21", root, i, -1)
		bal := optipart.Balance21(fr.history[s])
		tr.end(sb, int64(len(bal.Leaves)))
		t1 := time.Now()

		ranges := prior.Ranges(bal.Leaves)
		local := func(r int) []optipart.Key { return bal.Leaves[ranges[r]:ranges[r+1]:ranges[r+1]] }
		t2 := time.Now()
		sr := tr.begin("call Repartition", root, i, -1)
		var c1, c2 int
		st1, err1 := world(p, m, check, func(c *optipart.Comm) {
			id := tr.begin("optipart.Repartition", sr, i, c.Rank())
			rr[c.Rank()] = optipart.Repartition(c, local(c.Rank()), optipart.RepartOptions{
				Options: optipart.Options{Curve: curve, Machine: m, Tol: amrTol},
				Prior:   prior,
				Horizon: amrHorizon,
			})
			tr.end(id, int64(len(local(c.Rank()))))
			if c.Rank() == 0 {
				c1 = c.CollectiveIndex()
			}
		})
		tr.end(sr, 0)
		t3 := time.Now()

		next := rr[0].Splitters
		sg := tr.begin("call BuildGhost", root, i, -1)
		st2, err2 := world(p, m, check, func(c *optipart.Comm) {
			id := tr.begin("optipart.BuildGhost", sg, i, c.Rank())
			ghosts[c.Rank()] = optipart.BuildGhost(c, rr[c.Rank()].Local, next)
			tr.end(id, int64(len(rr[c.Rank()].Local)))
			if c.Rank() == 0 {
				c2 = c.CollectiveIndex()
			}
		})
		tr.end(sg, 0)
		t4 := time.Now()
		tr.end(root, int64(len(bal.Leaves)))
		d := t4.Sub(t0)
		if err := errors.Join(err1, err2); err != nil {
			return d, err
		}
		b.recordCall("balance", t1.Sub(t0))
		b.recordCall("repart", t3.Sub(t2))
		b.recordCall("ghost", t4.Sub(t3))

		// Checks, outside the timed region. The full checks run on the
		// warm-up cycle; every later op must reproduce its step's digest,
		// which folds in the moved count they verified.
		res := rr[0]
		if check {
			if recount := movedRecount(next, local, p); recount != res.MovedElements {
				return d, fmt.Errorf("amr mesh %d step %d: moved elements recount to %d, Repartition reported %d", f, s+1, recount, res.MovedElements)
			}
			if !octree.IsBalanced21(bal) {
				return d, fmt.Errorf("amr mesh %d step %d: mesh not 2:1 balanced after Balance21", f, s+1)
			}
			locals := make([][]optipart.Key, p)
			for r := range locals {
				locals[r] = rr[r].Local
			}
			if err := checkPlacement(next, locals, len(bal.Leaves)); err != nil {
				return d, fmt.Errorf("amr mesh %d step %d: %w", f, s+1, err)
			}
		}
		cycleDigest = cycleDigest.keys(bal.Leaves).keys(next.Seps).word(uint64(res.MovedElements)).word(uint64(res.KeptSeps))
		var gh, sv int64
		for _, g := range ghosts {
			gh += int64(g.NumGhosts())
			sv += g.SendVolume()
			cycleDigest = cycleDigest.word(uint64(g.NumGhosts())).word(uint64(g.SendVolume()))
		}
		if refDigest != nil && cycleDigest != refDigest[pos] {
			return d, fmt.Errorf("amr mesh %d step %d: cycle digest %x, reference %x", f, s+1, cycleDigest, refDigest[pos])
		}

		if check {
			refColls[pos] = c1 + c2
		}
		colls = append(colls, float64(refColls[pos]))
		bytes = append(bytes, float64(sumI64(st1.BytesSent)+sumI64(st2.BytesSent)))
		msgs = append(msgs, float64(sumI64(st1.MsgsSent)+sumI64(st2.MsgsSent)))
		wallOverModel = append(wallOverModel, t4.Sub(t2).Seconds()/(st1.Time()+st2.Time()))
		rounds = append(rounds, float64(res.Rounds))
		leaves = append(leaves, float64(len(bal.Leaves)))
		kept = append(kept, float64(res.KeptSeps)/float64(p-1))
		moved = append(moved, float64(res.MovedElements))
		movedMiB = append(movedMiB, float64(res.MovedBytes)/(1<<20))
		ghostCount = append(ghostCount, float64(gh))
		sendVol = append(sendVol, float64(sv))
		if tr != nil {
			amrProbes(tr, i, curve, m, bal.Leaves, local, rr)
		}
		prior = next
		return d, nil
	}

	// Warm-up: one fully checked cycle whose per-step digests are the
	// reference every later cycle must reproduce.
	var ref []digest
	for pos := 0; pos < cycle; pos++ {
		if _, err := op(-1, pos, nil, true); err != nil {
			return err
		}
		ref = append(ref, cycleDigest)
	}
	refDigest = ref
	b.calls = map[string]samples{}
	rounds, colls, bytes, msgs, wallOverModel, leaves, kept, moved, movedMiB, ghostCount, sendVol = nil, nil, nil, nil, nil, nil, nil, nil, nil, nil, nil

	b.openWindow()
	for i := 0; ; i++ {
		tr := b.tracerFor(i / cycle)
		d, err := op(i, i%cycle, tr, false)
		b.recordOp(d, tr != nil, rr[0].Predicted, err)
		// Whole cycles only, so every run covers the same steps.
		if i%cycle == cycle-1 && time.Now().After(b.deadline()) {
			break
		}
	}
	b.closeWindow()

	b.layer["balance_ms_p50"] = b.calls["balance"].median()
	b.layer["repart_ms_p50"] = b.calls["repart"].median()
	b.layer["ghost_ms_p50"] = b.calls["ghost"].median()
	b.layer["moved_mb"] = movedMiB.mean()
	if b.tr != nil {
		b.layer["sfc.rank_ns"] = b.tr.perOp("probe sfc.Curve.Rank", nsPerItem).median()
		b.layer["psort.treesort_ms"] = b.tr.perOp("probe psort.TreeSort", slowest).median()
		b.layer["partition.quality_ms"] = b.tr.perOp("probe partition.EvaluateQuality", slowest).median()
		b.layer["comm.alltoallv_ms"] = b.tr.perOp("probe comm.Alltoallv", slowest).median()
		b.layer["partition.rounds"] = rounds.mean()
		b.layer["octree.balance_ns_per_leaf"] = b.tr.perOp("optipart.Balance21", nsPerItem).median()
		b.layer["octree.leaves_out"] = leaves.mean()
		b.layer["partition.repart_rank_ms_max"] = b.tr.perOp("optipart.Repartition", slowest).median()
		b.layer["partition.repart_wait_ms"] = b.tr.perOp("optipart.Repartition", spread).median()
		b.layer["partition.kept_seps_frac"] = kept.mean()
		b.layer["partition.moved_elements"] = moved.mean()
		b.layer["mesh.ghost_rank_ms_max"] = b.tr.perOp("optipart.BuildGhost", slowest).median()
		b.layer["mesh.ghosts"] = ghostCount.mean()
		b.layer["mesh.send_volume"] = sendVol.mean()
		b.layer["comm.collectives"] = colls.mean()
		b.layer["comm.bytes"] = bytes.mean()
		b.layer["comm.msgs"] = msgs.mean()
		b.layer["machine.wall_over_model"] = wallOverModel.median()
	}
	return nil
}

// movedRecount counts the elements a regrid migrates, key by key and
// independently of Repartition's range intersection: the elements of each
// rank's pre-repartition block that the new splitters give to another rank.
func movedRecount(next *optipart.Splitters, local func(int) []optipart.Key, p int) int64 {
	var moved int64
	for r := 0; r < p; r++ {
		for _, k := range local(r) {
			if next.Owner(k) != r {
				moved++
			}
		}
	}
	return moved
}

// amrProbes times the partition-side layers on the regrid's own data, after
// the op: curve ranks of the balanced mesh, the slowest rank's TreeSort of
// its pre-repartition block, Algorithm 2 on the adopted placement, and the
// Alltoallv that migrates each block to its new owners.
func amrProbes(tr *tracer, i int, curve *optipart.Curve, m optipart.Machine, mesh []optipart.Key,
	local func(int) []optipart.Key, rr []*optipart.RepartResult) {
	root := tr.begin("probes", -1, i, -1)
	defer tr.end(root, 0)
	p := len(rr)
	next := rr[0].Splitters

	s := tr.begin("probe sfc.Curve.Rank", root, i, -1)
	var sink uint64
	for _, k := range mesh {
		sink += curve.Rank(k).Lo
	}
	tr.end(s, int64(len(mesh)))
	probeSink.Add(sink)

	var buf []optipart.Key
	for r := 0; r < p; r++ {
		buf = append(buf[:0], local(r)...)
		s := tr.begin("probe psort.TreeSort", root, i, r)
		psort.TreeSort(curve, buf)
		tr.end(s, int64(len(buf)))
	}

	s = tr.begin("probe partition.EvaluateQuality", root, i, -1)
	optipart.Run(p, m, func(c *optipart.Comm) {
		optipart.EvaluateQuality(c, curve, rr[c.Rank()].Local, next)
	})
	tr.end(s, 0)

	s = tr.begin("probe comm.Alltoallv", root, i, -1)
	optipart.Run(p, m, func(c *optipart.Comm) {
		mine := local(c.Rank())
		ranges := next.Ranges(mine)
		send := make([][]optipart.Key, p)
		for r := range send {
			send[r] = mine[ranges[r]:ranges[r+1]]
		}
		comm.Alltoallv(c, send, psort.KeyBytes, comm.AlltoallvOptions{})
	})
	tr.end(s, 0)
}
