package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"optipart"
	"optipart/internal/comm"
	"optipart/internal/psort"
)

// partition: a cold model-driven OptiPart partition with exchange on 16
// in-process ranks under the Clemson-32 model, over the paper's §4.2 input
// (Normal-distributed octants, levels 2–18, 3D Hilbert).
//
// Setup generates a reservoir of such octants from the seed; each op's
// input is a window of it, copied into reused buffers outside the timed
// region (Partition sorts its input in place). ModelDriven's round count is
// long-tailed (about one input in ten takes 8 rounds against a typical 5),
// so a small pool of inputs would make op_ms_p90 jump between runs; windows
// at ever new offsets average it out. Every repeatEvery-th op repeats an
// earlier input and must reproduce its placement digest.

type partitionSize struct{ ranks, perRank, reservoir, repeatEvery int }

func (b *bench) partitionSize() partitionSize {
	if b.cfg.tiny {
		return partitionSize{ranks: 4, perRank: 256, reservoir: 1 << 12, repeatEvery: 4}
	}
	return partitionSize{ranks: 16, perRank: 4096, reservoir: 1 << 20, repeatEvery: 8}
}

// inputOf is the input index op i partitions: fresh, or on every
// repeatEvery-th op the input of half a period earlier.
func (sz partitionSize) inputOf(i int) int {
	if i%sz.repeatEvery == sz.repeatEvery-1 {
		return i - sz.repeatEvery/2
	}
	return i
}

func runPartition(b *bench) error {
	sz := b.partitionSize()
	curve := optipart.NewCurve(optipart.Hilbert, 3)
	m := optipart.Clemson32()
	opts := optipart.Options{Curve: curve, Mode: optipart.ModelDriven, Machine: m}
	n := sz.ranks * sz.perRank

	var reservoir []optipart.Key
	if err := b.setupRepeat(func() error {
		reservoir = optipart.RandomKeys(rand.New(rand.NewSource(b.cfg.seed)), sz.reservoir, 3, optipart.Normal, 2, 18)
		return nil
	}); err != nil {
		return err
	}
	// fill copies input idx into dst, one block per rank: the n reservoir
	// octants from offset idx·stride on, wrapping around. The stride is odd
	// and longer than an input, so the reservoir's size (a power of two)
	// yields that many distinct inputs.
	stride := n + 4099
	fill := func(idx int, dst [][]optipart.Key) {
		at := idx * stride % len(reservoir)
		if at < 0 {
			at += len(reservoir)
		}
		for _, block := range dst {
			for j := 0; j < len(block); {
				c := copy(block[j:], reservoir[at:])
				j += c
				at = (at + c) % len(reservoir)
			}
		}
	}
	buffers := func() [][]optipart.Key {
		out := make([][]optipart.Key, sz.ranks)
		for r := range out {
			out[r] = make([]optipart.Key, sz.perRank)
		}
		return out
	}
	// Partition sorts its input in place: work is refilled before every op.
	work, probeBuf := buffers(), buffers()
	results := make([]*optipart.Result, sz.ranks)
	refs := map[int]digest{}
	var rounds, colls, bytes, msgs, wallOverModel samples

	op := func(i int, tr *tracer) (time.Duration, error) {
		idx := sz.inputOf(i)
		fill(idx, work)
		root := tr.begin("op partition", -1, i, -1)
		t := time.Now()
		st := optipart.Run(sz.ranks, m, func(c *optipart.Comm) {
			s := tr.begin("optipart.Partition", root, i, c.Rank())
			results[c.Rank()] = optipart.Partition(c, work[c.Rank()], opts)
			tr.end(s, int64(sz.perRank))
		})
		d := time.Since(t)
		tr.end(root, int64(n))

		sp := results[0].Splitters
		dg := placementDigest(results)
		if ref, ok := refs[idx]; ok {
			delete(refs, idx)
			if dg != ref {
				return d, fmt.Errorf("partition input %d: placement digest %x, reference %x", idx, dg, ref)
			}
		} else {
			locals := make([][]optipart.Key, sz.ranks)
			for r, res := range results {
				locals[r] = res.Local
			}
			if err := checkPlacement(sp, locals, n); err != nil {
				return d, fmt.Errorf("partition input %d: %w", idx, err)
			}
			refs[idx] = dg
			delete(refs, idx-sz.repeatEvery) // never repeated
		}

		rounds = append(rounds, float64(results[0].Rounds))
		bytes = append(bytes, float64(sumI64(st.BytesSent)))
		msgs = append(msgs, float64(sumI64(st.MsgsSent)))
		wallOverModel = append(wallOverModel, d.Seconds()/st.Time())
		if tr != nil {
			c, err := partitionProbes(tr, i, curve, m, opts, func(dst [][]optipart.Key) { fill(idx, dst) }, probeBuf, work, results, dg)
			if err != nil {
				return d, err
			}
			colls = append(colls, float64(c))
		}
		return d, nil
	}

	// Warm-up on one input outside the window.
	if _, err := op(-sz.repeatEvery, nil); err != nil {
		return err
	}
	rounds, bytes, msgs, wallOverModel = nil, nil, nil, nil

	b.openWindow()
	for i := 0; !time.Now().After(b.deadline()); i++ {
		tr := b.tracerFor(i)
		d, err := op(i, tr)
		b.recordOp(d, tr != nil, results[0].Predicted, err)
	}
	b.closeWindow()

	if b.tr != nil {
		b.layer["sfc.rank_ns"] = b.tr.perOp("probe sfc.Curve.Rank", nsPerItem).median()
		b.layer["psort.treesort_ms"] = b.tr.perOp("probe psort.TreeSort", slowest).median()
		b.layer["partition.quality_ms"] = b.tr.perOp("probe partition.EvaluateQuality", slowest).median()
		b.layer["partition.rank_ms_max"] = b.tr.perOp("optipart.Partition", slowest).median()
		b.layer["partition.rank_wait_ms"] = b.tr.perOp("optipart.Partition", spread).median()
		b.layer["comm.alltoallv_ms"] = b.tr.perOp("probe comm.Alltoallv", slowest).median()
		b.layer["partition.rounds"] = rounds.mean()
		b.layer["comm.collectives"] = colls.mean()
		b.layer["comm.bytes"] = bytes.mean()
		b.layer["comm.msgs"] = msgs.mean()
		b.layer["machine.wall_over_model"] = wallOverModel.median()
	}
	return nil
}

// placementDigest folds the separators and every rank's elements.
func placementDigest(results []*optipart.Result) digest {
	dg := digestInit.keys(results[0].Splitters.Seps)
	for _, res := range results {
		dg = dg.keys(res.Local)
	}
	return dg
}

// partitionProbes times the partition workload's layers on the op's own
// input, after the op: curve ranks of every input key, the slowest rank's
// TreeSort of its input, Algorithm 2 on the final placement, and the
// Alltoallv of the final ranges (sorted holds each rank's input in curve
// order: Partition sorted it in place). Last, it reruns the op on the
// checked runtime, which counts collectives, and requires the same
// placement; it returns the collective count.
func partitionProbes(tr *tracer, i int, curve *optipart.Curve, m optipart.Machine, opts optipart.Options,
	fill func([][]optipart.Key), buf, sorted [][]optipart.Key, results []*optipart.Result, want digest) (int, error) {
	root := tr.begin("probes", -1, i, -1)
	defer tr.end(root, 0)
	sp := results[0].Splitters
	p := len(buf)

	fill(buf)
	s := tr.begin("probe sfc.Curve.Rank", root, i, -1)
	var sink uint64
	var n int64
	for _, keys := range buf {
		for _, k := range keys {
			sink += curve.Rank(k).Lo
		}
		n += int64(len(keys))
	}
	tr.end(s, n)
	probeSink.Add(sink)

	for r, keys := range buf {
		s := tr.begin("probe psort.TreeSort", root, i, r)
		psort.TreeSort(curve, keys)
		tr.end(s, int64(len(keys)))
	}

	s = tr.begin("probe partition.EvaluateQuality", root, i, -1)
	optipart.Run(p, m, func(c *optipart.Comm) {
		optipart.EvaluateQuality(c, curve, results[c.Rank()].Local, sp)
	})
	tr.end(s, 0)

	s = tr.begin("probe comm.Alltoallv", root, i, -1)
	optipart.Run(p, m, func(c *optipart.Comm) {
		local := sorted[c.Rank()]
		ranges := sp.Ranges(local)
		send := make([][]optipart.Key, p)
		for r := range send {
			send[r] = local[ranges[r]:ranges[r+1]]
		}
		comm.Alltoallv(c, send, psort.KeyBytes, comm.AlltoallvOptions{})
	})
	tr.end(s, 0)

	fill(buf)
	rerun := make([]*optipart.Result, p)
	var colls int
	s = tr.begin("probe checked rerun", root, i, -1)
	_, err := world(p, m, true, func(c *optipart.Comm) {
		rerun[c.Rank()] = optipart.Partition(c, buf[c.Rank()], opts)
		if c.Rank() == 0 {
			colls = c.CollectiveIndex()
		}
	})
	tr.end(s, 0)
	if err != nil {
		return 0, err
	}
	if got := placementDigest(rerun); got != want {
		return 0, fmt.Errorf("partition op %d: checked-runtime rerun digest %x, op digest %x", i, got, want)
	}
	return colls, nil
}

// probeSink keeps probe loops from being optimized away.
var probeSink atomic.Uint64

func sumI64(v []int64) int64 {
	var t int64
	for _, x := range v {
		t += x
	}
	return t
}
