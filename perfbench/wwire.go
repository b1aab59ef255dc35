package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"optipart"
	"optipart/internal/comm"
	wnet "optipart/internal/net"
)

// wire-campaign: optipartd's checkpointed campaign over the wire transport.
// Each op is one step of RunCampaign (ModelDriven, Clemson-32, checkpoint to
// a MemStore every step) on a 3-rank world over unix sockets in one
// process: the root plus two dialing workers. Runs alternate between a few
// campaign seeds and execute whole cycles of them, so every run covers the
// same mix of step sizes.

type wireSize struct{ ranks, perRank, steps, variants int }

func (b *bench) wireSize() wireSize {
	if b.cfg.tiny {
		return wireSize{ranks: 3, perRank: 256, steps: 2, variants: 2}
	}
	return wireSize{ranks: 3, perRank: 8192, steps: 4, variants: 2}
}

// allreduceProbes is how many 8-byte Allreduces a traced campaign times
// after its last step.
const allreduceProbes = 50

// timedSaver wraps a snapshot saver with a timer.
type timedSaver struct {
	inner optipart.SnapshotSaver
	tr    *tracer
	op    int
	mu    sync.Mutex
	saves samples // ms
	snaps []*optipart.Snapshot
}

func (s *timedSaver) Save(snap *optipart.Snapshot) error {
	t := time.Now()
	err := s.inner.Save(snap)
	end := time.Now()
	d := end.Sub(t)
	s.tr.add("ckpt.MemStore.Save", t, end, -1, s.op, 0, int64(snap.Epoch))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves = append(s.saves, ms(d))
	s.snaps = append(s.snaps, snap)
	return err
}

// campaignRun is rank 0's account of one campaign.
type campaignRun struct {
	digest    uint64
	stepWall  samples // ms per step
	stepModel samples // modeled s per step
	stepColls samples
	allreduce samples // us per 8-byte Allreduce (traced campaigns)
	allocPer  float64 // bytes allocated per probe Allreduce
	stats     *optipart.Stats
}

// campaignBody runs the campaign on one rank; rank 0 records step
// boundaries into out. With probe set, every rank then joins the
// Allreduce probe loop.
func campaignBody(opts optipart.CampaignOptions, tr *tracer, op int, out *campaignRun) func(c *optipart.Comm) error {
	return func(c *optipart.Comm) error {
		opts := opts // per-rank copy: ranks set different hooks
		last, clock, coll := time.Now(), c.Clock(), c.CollectiveIndex()
		if c.Rank() == 0 {
			opts.StepDone = func(c *comm.Comm, step int, seq uint64) bool {
				now := time.Now()
				tr.add("campaign step", last, now, -1, op, 0, int64(step))
				out.stepWall = append(out.stepWall, ms(now.Sub(last)))
				out.stepModel = append(out.stepModel, c.Clock()-clock)
				out.stepColls = append(out.stepColls, float64(c.CollectiveIndex()-coll))
				last, clock, coll = now, c.Clock(), c.CollectiveIndex()
				return true
			}
		} else {
			opts.Saver = nil // only rank 0 saves
		}
		res, err := optipart.RunCampaign(c, optipart.FreshCampaign(), opts)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out.digest = res.Digest
		}
		if tr != nil {
			alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
			metrics.Read(alloc)
			a0 := alloc[0].Value.Uint64()
			for k := 0; k < allreduceProbes; k++ {
				t := time.Now()
				comm.Allreduce(c, []int64{1}, 8, comm.SumI64)
				if c.Rank() == 0 {
					out.allreduce = append(out.allreduce, us(time.Since(t)))
				}
			}
			metrics.Read(alloc)
			if c.Rank() == 0 {
				out.allocPer = float64(alloc[0].Value.Uint64()-a0) / allreduceProbes
			}
		}
		return nil
	}
}

// wireCampaign runs one campaign on a fresh 3-rank wire world.
func wireCampaign(sock string, p int, m optipart.Machine, opts optipart.CampaignOptions, tr *tracer, op int) (*campaignRun, error) {
	out := &campaignRun{}
	ep := "unix:" + sock
	root, err := optipart.ListenRoot(ep, p, optipart.WireOptions{})
	if err != nil {
		return nil, err
	}
	defer os.Remove(sock)
	defer root.Close()
	errs := make([]error, p)
	var wg sync.WaitGroup
	for rank := 1; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			wk, err := optipart.DialRoot(ep, rank, p, optipart.WireOptions{})
			if err != nil {
				errs[rank] = err
				return
			}
			defer wk.Close()
			_, errs[rank] = optipart.RunRank(rank, p, wk.Model(), wk, optipart.CheckedOptions{}, campaignBody(opts, tr, op, out))
		}(rank)
	}
	if err := root.WaitReady(30 * time.Second); err != nil {
		root.Close()
		wg.Wait()
		return nil, err
	}
	root.Announce(m.CostModel())
	out.stats, errs[0] = optipart.RunRank(0, p, m.CostModel(), root, optipart.CheckedOptions{}, campaignBody(opts, tr, op, out))
	root.Drain(5 * time.Second)
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("wire rank %d: %w", rank, err)
		}
	}
	return out, nil
}

// inprocCampaign runs the same campaign under the in-process runtime.
func inprocCampaign(p int, m optipart.Machine, opts optipart.CampaignOptions) (*campaignRun, error) {
	out := &campaignRun{}
	st, err := optipart.RunChecked(p, m, campaignBody(opts, nil, 0, out))
	out.stats = st
	return out, err
}

func runWire(b *bench) error {
	sz := b.wireSize()
	m := optipart.Clemson32()
	p := sz.ranks
	variants := make([]optipart.CampaignOptions, sz.variants)
	for v := range variants {
		variants[v] = optipart.CampaignOptions{
			Steps: sz.steps, PerRank: sz.perRank, Seed: b.cfg.seed*int64(sz.variants) + int64(v),
			Kind: optipart.Hilbert, Dim: 3,
			Mode: optipart.ModelDriven, Machine: m,
			Dist: optipart.Normal, MinLevel: 2, MaxLevel: 18,
			Every: 1,
		}
	}
	dir := filepath.Join(b.cfg.out, "sock")

	// Setup: the in-process reference campaigns give the digest every wire
	// campaign must reproduce, and, from their snapshots, the modeled Tp of
	// each step's adopted placement.
	refs := make([]*campaignRun, sz.variants)
	stepTp := make([]samples, sz.variants)
	if err := b.setupRepeat(func() error {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for v, opts := range variants {
			saver := &timedSaver{inner: optipart.NewMemStore()}
			opts.Saver = saver
			var err error
			if refs[v], err = inprocCampaign(p, m, opts); err != nil {
				return err
			}
			if len(saver.snaps) != sz.steps {
				return fmt.Errorf("wire: reference campaign saved %d snapshots for %d steps", len(saver.snaps), sz.steps)
			}
			stepTp[v] = stepTp[v][:0]
			for _, snap := range saver.snaps {
				stepTp[v] = append(stepTp[v], snapshotTp(snap, m))
			}
		}
		return nil
	}); err != nil {
		return err
	}

	var saves, allreduce, allocPer, overhead, wallOverModel samples
	campaign := func(k int, tr *tracer) error {
		opts, ref := variants[k%sz.variants], refs[k%sz.variants]
		saver := &timedSaver{inner: optipart.NewMemStore(), tr: tr, op: k}
		o := opts
		o.Saver = saver
		sock := filepath.Join(dir, fmt.Sprintf("w-%d-%d.sock", os.Getpid(), k))
		root := tr.begin("campaign", -1, k, -1)
		run, err := wireCampaign(sock, p, m, o, tr, k)
		tr.end(root, int64(sz.steps))
		if err != nil {
			return err
		}
		var cerr error
		if run.digest != ref.digest {
			cerr = fmt.Errorf("wire campaign %d: digest %x, in-process reference %x", k, run.digest, ref.digest)
		}
		if len(run.stepWall) != sz.steps {
			return fmt.Errorf("wire campaign %d: %d step boundaries for %d steps", k, len(run.stepWall), sz.steps)
		}
		for s, w := range run.stepWall {
			b.recordOp(time.Duration(w*float64(time.Millisecond)), tr != nil, stepTp[k%sz.variants][s], cerr)
			wallOverModel = append(wallOverModel, w/1000/run.stepModel[s])
		}
		if tr != nil {
			saves = append(saves, saver.saves...)
			allreduce = append(allreduce, run.allreduce...)
			allocPer = append(allocPer, run.allocPer)
			s := tr.begin("probe in-process campaign", -1, k, -1)
			in, err := inprocCampaign(p, m, opts)
			tr.end(s, int64(sz.steps))
			if err != nil {
				return err
			}
			for s := range run.stepWall {
				overhead = append(overhead, run.stepWall[s]-in.stepWall[s])
			}
			wireFrameProbes(tr, k, run.stats)
		}
		return nil
	}

	b.openWindow()
	for k := 0; ; k++ {
		if err := campaign(k, b.tracerFor(k/sz.variants)); err != nil {
			return err
		}
		if k%sz.variants == sz.variants-1 && time.Now().After(b.deadline()) {
			break
		}
	}
	b.closeWindow()

	if b.tr != nil {
		b.layer["net.step_overhead_ms"] = overhead.median()
		b.layer["net.allreduce_rtt_us"] = allreduce.median()
		b.layer["net.frame_encode_us"] = b.tr.perOp("probe net.AppendFrame", func(g []span) float64 { return nsPerItem(g) / 1000 }).median()
		b.layer["net.frame_decode_us"] = b.tr.perOp("probe net.DecodeFrame", func(g []span) float64 { return nsPerItem(g) / 1000 }).median()
		b.layer["net.alloc_bytes_per_collective"] = allocPer.median()
		b.layer["ckpt.save_ms"] = saves.median()
		b.layer["machine.wall_over_model"] = wallOverModel.median()
		var colls, byts, msgs samples
		for _, ref := range refs {
			colls = append(colls, ref.stepColls...)
			byts = append(byts, float64(sumI64(ref.stats.BytesSent))/float64(sz.steps))
			msgs = append(msgs, float64(sumI64(ref.stats.MsgsSent))/float64(sz.steps))
		}
		b.layer["comm.collectives"] = colls.mean()
		b.layer["comm.bytes"] = byts.mean()
		b.layer["comm.msgs"] = msgs.mean()
	}
	return nil
}

// snapshotTp evaluates the modeled Tp of a checkpointed placement: one
// Algorithm 2 pass over the saved per-rank elements.
func snapshotTp(snap *optipart.Snapshot, m optipart.Machine) float64 {
	curve := optipart.NewCurve(snap.Kind, snap.Dim)
	sp := &optipart.Splitters{Curve: curve, Seps: snap.Seps}
	var q optipart.Quality
	optipart.Run(snap.P, m, func(c *optipart.Comm) {
		qq := optipart.EvaluateQuality(c, curve, snap.Placement[c.Rank()], sp)
		if c.Rank() == 0 {
			q = qq
		}
	})
	return q.PredictKernel(m, optipart.DefaultAlpha, optipart.GhostPayloadBytes)
}

// frameProbeReps is how many frames each codec probe encodes or decodes.
const frameProbeReps = 200

// wireFrameProbes times the frame codec on a payload the size of the
// campaign's mean message (bytes sent over messages sent, rank 0's view).
func wireFrameProbes(tr *tracer, k int, st *optipart.Stats) {
	size := 64
	if st != nil && sumI64(st.MsgsSent) > 0 {
		size = int(sumI64(st.BytesSent) / sumI64(st.MsgsSent))
	}
	f := &wnet.Frame{Type: 3, Src: 1, Seq: 7, Op: "Allgather", Payload: make([]byte, size)}
	buf, err := wnet.AppendFrame(nil, f)
	if err != nil {
		return
	}
	s := tr.begin("probe net.AppendFrame", -1, k, -1)
	for i := 0; i < frameProbeReps; i++ {
		buf, _ = wnet.AppendFrame(buf[:0], f)
	}
	tr.end(s, frameProbeReps)
	s = tr.begin("probe net.DecodeFrame", -1, k, -1)
	for i := 0; i < frameProbeReps; i++ {
		wnet.DecodeFrame(buf)
	}
	tr.end(s, frameProbeReps)
}
