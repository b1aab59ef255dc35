package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"optipart"
	"optipart/internal/octree"
	"optipart/internal/psort"
	"optipart/internal/service"
)

// service: a closed loop of two client connections over a unix socket to an
// in-process ServeServiceConn. Each client stands for a campaign waiting on
// its placement; the two send in rounds, one request each. A seeded schedule
// sends about 80% hits on a primed pool of octrees and about 20% unique
// misses, keys in generation order; the cache bound leaves room for a few
// misses only, so misses evict throughout.

type serviceSize struct {
	clients, pool, keys, ranks, headroom int
	fresh                                int // deep octants in the miss reservoir
	missEvery                            int // traced rounds between two in-process miss probes
}

func (b *bench) serviceSize() serviceSize {
	if b.cfg.tiny {
		return serviceSize{clients: 2, pool: 3, keys: 256, ranks: 4, headroom: 4, fresh: 1 << 10, missEvery: 2}
	}
	return serviceSize{clients: 2, pool: 16, keys: 8192, ranks: 16, headroom: 16, fresh: 1 << 16, missEvery: 8}
}

const missShare = 0.2 // share of scheduled requests that are unique misses

// missFresh is how many pool keys a miss replaces with octants from the
// miss reservoir, which makes its canonical octree unique at the cost of a
// pool request.
const missFresh = 32

// serviceRig is one set-up service: the pool, its primed placements, the
// server and the client connections.
type serviceRig struct {
	sz       serviceSize
	pool     [][]optipart.Key
	fresh    []optipart.Key // miss reservoir: deep octants drawn in setup
	primed   []*optipart.ServiceResponse
	svc      *optipart.PartitionService
	ln       net.Listener
	sock     string
	serving  sync.WaitGroup
	conns    []net.Conn
	encs     []*gob.Encoder
	decs     []*gob.Decoder
	probeSvc *optipart.PartitionService // traced run: probes never touch the measured service
}

func (g *serviceRig) request(keys []optipart.Key) optipart.ServiceRequest {
	return optipart.ServiceRequest{
		Keys: keys, CurveKind: optipart.Hilbert, Dim: 3,
		Ranks: g.sz.ranks, Mode: optipart.ModelDriven, Machine: optipart.Clemson32(),
	}
}

// missKeys writes unique miss j of client c into dst and returns it: the
// keys of a pool octree with the first missFresh replaced by reservoir
// octants picked by a hash of (seed, c, j). Once dst holds an octree it
// allocates nothing.
func (g *serviceRig) missKeys(dst []optipart.Key, seed int64, c, j int) []optipart.Key {
	dst = append(dst[:0], g.pool[j%len(g.pool)]...)
	base := mix64(uint64(seed)) ^ uint64(c)<<48 ^ uint64(j)
	for t := 0; t < missFresh; t++ {
		dst[t] = g.fresh[mix64(base+uint64(t)*0x9E3779B97F4A7C15)%uint64(len(g.fresh))]
	}
	return dst
}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func (g *serviceRig) close() {
	for _, c := range g.conns {
		c.Close()
	}
	if g.ln != nil {
		g.ln.Close()
	}
	g.serving.Wait()
	g.svc.Close()
	if g.probeSvc != nil {
		g.probeSvc.Close()
	}
	os.Remove(g.sock)
}

func newServiceRig(b *bench, sz serviceSize) (*serviceRig, error) {
	g := &serviceRig{sz: sz}
	rng := rand.New(rand.NewSource(b.cfg.seed))
	for i := 0; i < sz.pool; i++ {
		g.pool = append(g.pool, optipart.RandomKeys(rng, sz.keys, 3, optipart.Normal, 2, 18))
	}
	g.fresh = optipart.RandomKeys(rng, sz.fresh, 3, optipart.Normal, 12, 18)
	// Size the cache to the canonical pool plus room for a few misses: once
	// the warm-up fills that room, every miss evicts an older miss.
	curve := optipart.NewCurve(optipart.Hilbert, 3)
	total := 0
	for _, keys := range g.pool {
		canon := append([]optipart.Key(nil), keys...)
		psort.TreeSort(curve, canon)
		total += len(octree.LinearizeSorted(canon))
	}
	cfg := optipart.ServiceConfig{Slots: 2, MaxCachedKeys: total + sz.headroom*sz.keys}
	g.svc = optipart.NewService(cfg)
	for _, keys := range g.pool {
		resp, _, err := g.svc.Do(g.request(keys))
		if err != nil {
			return nil, err
		}
		g.primed = append(g.primed, resp)
	}
	if b.tr != nil {
		g.probeSvc = optipart.NewService(cfg)
		for _, keys := range g.pool {
			if _, _, err := g.probeSvc.Do(g.request(keys)); err != nil {
				return nil, err
			}
		}
	}

	dir := filepath.Join(b.cfg.out, "sock")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	g.sock = filepath.Join(dir, fmt.Sprintf("svc-%d.sock", os.Getpid()))
	os.Remove(g.sock)
	var err error
	if g.ln, err = net.Listen("unix", g.sock); err != nil {
		return nil, err
	}
	g.serving.Add(1)
	go func() {
		defer g.serving.Done()
		for {
			conn, err := g.ln.Accept()
			if err != nil {
				return
			}
			g.serving.Add(1)
			go func() {
				defer g.serving.Done()
				defer conn.Close()
				optipart.ServeServiceConn(g.svc, conn)
			}()
		}
	}()
	for c := 0; c < sz.clients; c++ {
		conn, err := net.Dial("unix", g.sock)
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, conn)
		g.encs = append(g.encs, gob.NewEncoder(conn))
		g.decs = append(g.decs, gob.NewDecoder(conn))
	}
	return g, nil
}

// call sends one request on client c's connection and waits for the reply.
func (g *serviceRig) call(c int, wr *optipart.ServiceWireRequest) (*optipart.ServiceWireResponse, time.Duration, error) {
	var out optipart.ServiceWireResponse
	t := time.Now()
	if err := g.encs[c].Encode(wr); err != nil {
		return nil, 0, err
	}
	if err := g.decs[c].Decode(&out); err != nil {
		return nil, 0, err
	}
	d := time.Since(t)
	if out.Err != "" {
		return &out, d, errors.New(out.Err)
	}
	return &out, d, nil
}

// checkHit verifies a response for pool octree i against its primed
// placement.
func (g *serviceRig) checkHit(i int, out *optipart.ServiceWireResponse) error {
	want := g.primed[i]
	if !slices.Equal(out.Seps, want.Splitters.Seps) || !slices.Equal(out.Counts, want.Counts) ||
		out.Predicted != want.Predicted || out.NumKeys != want.NumKeys {
		return fmt.Errorf("service: response for pool octree %d differs from its primed placement", i)
	}
	return nil
}

// clientLog is the clients' latencies (ms) and probe timings.
type clientLog struct {
	hit, miss, tracedHit samples
	doHit, codec         samples // us
	doMiss, sort         samples // ms
	rank                 samples // ns per key
}

// serviceCall is one client's request of a round and its reply.
type serviceCall struct {
	pi    int // pool octree of a hit, -1 for a miss
	wr    optipart.ServiceWireRequest
	out   *optipart.ServiceWireResponse
	start time.Time
	d     time.Duration
	err   error
}

func runService(b *bench) error {
	sz := b.serviceSize()
	var g *serviceRig
	if err := b.setupRepeat(func() error {
		if g != nil {
			g.close()
		}
		var err error
		g, err = newServiceRig(b, sz)
		return err
	}); err != nil {
		return err
	}
	defer g.close()
	curve := optipart.NewCurve(optipart.Hilbert, 3)
	poolReqs := make([]optipart.ServiceWireRequest, sz.pool)
	for i, keys := range g.pool {
		poolReqs[i] = service.FromRequest(g.request(keys))
	}

	// Warm-up: every client reads the whole pool once, then the misses
	// that fill the cache's headroom.
	bufs := make([][]optipart.Key, sz.clients) // per-client miss key buffers
	for c := 0; c < sz.clients; c++ {
		for i := range poolReqs {
			out, _, err := g.call(c, &poolReqs[i])
			if err != nil {
				return err
			}
			if err := g.checkHit(i, out); err != nil {
				return err
			}
		}
		for j := 0; j < sz.headroom/sz.clients; j++ {
			bufs[c] = g.missKeys(bufs[c], b.cfg.seed, c, 1<<29+j)
			wr := service.FromRequest(g.request(bufs[c]))
			if _, _, err := g.call(c, &wr); err != nil {
				return err
			}
		}
	}

	// The measured loop runs in rounds: each client sends one request and
	// the round ends when both replies are in. A seeded schedule decides per
	// round and client whether the request is a miss, so the share of hits
	// that run beside a miss (and of misses beside a miss) is fixed by the
	// schedule rather than by timing. With free-running clients that share
	// swings with the host's speed, and the median request moves with it.
	var lg clientLog
	reqs := make([]serviceCall, sz.clients)
	start := make([]chan struct{}, sz.clients) // a value: run reqs[c]; closed: stop
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < sz.clients; c++ {
		start[c] = make(chan struct{})
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for range start[c] {
				rc := &reqs[c]
				rc.start = time.Now()
				rc.out, rc.d, rc.err = g.call(c, &rc.wr)
				done <- struct{}{}
			}
		}(c)
	}
	defer func() {
		for _, ch := range start {
			close(ch)
		}
		wg.Wait()
	}()

	sched := rand.New(rand.NewSource(b.cfg.seed * 31))
	orders := make([][]int, sz.clients) // hits walk the pool in a seeded order per client
	nexts := make([]int, sz.clients)
	for c := range orders {
		orders[c] = sched.Perm(sz.pool)
	}
	probes := make([]*serviceProbe, sz.clients)
	if b.tr != nil {
		for c := range probes {
			probes[c] = newServiceProbe()
		}
	}
	m0 := g.svc.Metrics()
	b.openWindow()
	for j := 0; ; j++ {
		tr := b.tracerFor(j)
		for c := range reqs {
			rc := &reqs[c]
			rc.pi = -1
			if sched.Float64() < missShare {
				bufs[c] = g.missKeys(bufs[c], b.cfg.seed, c, j)
				rc.wr = service.FromRequest(g.request(bufs[c]))
			} else {
				rc.pi = orders[c][nexts[c]%sz.pool]
				nexts[c]++
				rc.wr = poolReqs[rc.pi]
			}
		}
		root := tr.begin("op service round", -1, j, -1)
		for c := range start {
			start[c] <- struct{}{}
		}
		for range start {
			<-done
		}
		tr.end(root, 0)
		// Checks and probes, after every request of the round has ended.
		for c := range reqs {
			rc := &reqs[c]
			tr.add("op service request", rc.start, rc.start.Add(rc.d), root, j, c, int64(len(rc.wr.Keys)))
			if rc.err != nil {
				b.recordOp(rc.d, tr != nil, 0, rc.err)
				return rc.err
			}
			var err error
			if rc.pi >= 0 {
				err = g.checkHit(rc.pi, rc.out)
			} else {
				err = checkCounts(curve, rc.out.Seps, rc.out.Counts, rc.out.NumKeys, rc.out.Quality, rc.out.Predicted)
			}
			b.recordOp(rc.d, tr != nil, rc.out.Predicted, err)
			if rc.out.Hit {
				lg.hit = append(lg.hit, ms(rc.d))
				if tr != nil {
					lg.tracedHit = append(lg.tracedHit, ms(rc.d))
				}
			} else {
				lg.miss = append(lg.miss, ms(rc.d))
			}
			if tr != nil && rc.pi >= 0 {
				probes[c].hit(tr, g, j, c, rc.pi, &rc.wr, rc.out, &lg)
				if (j/2)%sz.missEvery == 0 {
					probes[c].miss(tr, g, b.cfg.seed, j, c, j, &lg)
				}
			}
		}
		if time.Now().After(b.deadline()) {
			break
		}
	}
	b.closeWindow()
	m1 := g.svc.Metrics()

	b.calls["hit"], b.calls["miss"] = lg.hit, lg.miss
	if m1.Misses == m0.Misses || m1.Hits == m0.Hits {
		return fmt.Errorf("service: window saw %d hits and %d misses; the mix needs both", m1.Hits-m0.Hits, m1.Misses-m0.Misses)
	}

	requests := float64(m1.Requests - m0.Requests)
	b.layer["hit_ms_p50"] = lg.hit.median()
	b.layer["hit_ms_p99"] = lg.hit.quantile(0.99)
	b.layer["miss_ms_p50"] = lg.miss.median()
	b.layer["miss_ms_p90"] = lg.miss.quantile(0.9)
	b.layer["service.hits"] = float64(m1.Hits - m0.Hits)
	b.layer["service.misses"] = float64(m1.Misses - m0.Misses)
	b.layer["service.coalesced"] = float64(m1.Coalesced - m0.Coalesced)
	b.layer["service.evictions"] = float64(m1.Evictions - m0.Evictions)
	b.layer["service.hit_ratio"] = float64(m1.Hits-m0.Hits) / requests
	if b.tr != nil {
		b.layer["service.do_hit_us"] = lg.doHit.median()
		b.layer["service.client_codec_us"] = lg.codec.median()
		b.layer["service.wire_hit_us"] = lg.tracedHit.median()*1000 - lg.doHit.median()
		b.layer["service.do_miss_ms"] = lg.doMiss.median()
		b.layer["sfc.rank_ns"] = lg.rank.median()
		b.layer["psort.treesort_ms"] = lg.sort.median()
		colls, byts, msgs, err := serviceCommPerMiss(g)
		if err != nil {
			return err
		}
		perOp := float64(m1.Misses-m0.Misses) / requests
		b.layer["comm.collectives"] = colls * perOp
		b.layer["comm.bytes"] = byts * perOp
		b.layer["comm.msgs"] = msgs * perOp
	}
	return nil
}

// serviceProbe holds a client's probe state: a gob encoder and decoder pair
// that replays the client's side of the codec without a socket.
type serviceProbe struct {
	keys            []optipart.Key // miss probe key buffer
	reqBuf, respBuf bytes.Buffer
	enc, respEnc    *gob.Encoder
	dec             *gob.Decoder
}

func newServiceProbe() *serviceProbe {
	p := &serviceProbe{}
	p.enc = gob.NewEncoder(&p.reqBuf)
	p.respEnc = gob.NewEncoder(&p.respBuf)
	p.dec = gob.NewDecoder(&p.respBuf)
	return p
}

// hit times, after a traced hit: the in-process Service.Do on the same
// primed request (against the probe service), the client's gob encode of
// the request plus decode of the response, and the curve-rank and TreeSort
// layers on the request's keys.
func (p *serviceProbe) hit(tr *tracer, g *serviceRig, op, c, pi int, wr *optipart.ServiceWireRequest, out *optipart.ServiceWireResponse, lg *clientLog) {
	root := tr.begin("probes", -1, op, c)
	defer tr.end(root, 0)
	keys := g.pool[pi]

	s := tr.begin("probe Service.Do hit", root, op, c)
	t := time.Now()
	_, hit, err := g.probeSvc.Do(g.request(keys))
	d := time.Since(t)
	tr.end(s, int64(len(keys)))
	if err == nil && hit {
		lg.doHit = append(lg.doHit, us(d))
	}

	if err := p.respEnc.Encode(out); err == nil {
		var back optipart.ServiceWireResponse
		p.reqBuf.Reset()
		s := tr.begin("probe gob codec", root, op, c)
		t := time.Now()
		err1 := p.enc.Encode(wr)
		err2 := p.dec.Decode(&back)
		d := time.Since(t)
		tr.end(s, 0)
		if err1 == nil && err2 == nil {
			lg.codec = append(lg.codec, us(d))
		}
	}

	curve := optipart.NewCurve(optipart.Hilbert, 3)
	s = tr.begin("probe sfc.Curve.Rank", root, op, c)
	t = time.Now()
	var sink uint64
	for _, k := range keys {
		sink += curve.Rank(k).Lo
	}
	d = time.Since(t)
	tr.end(s, int64(len(keys)))
	probeSink.Add(sink)
	lg.rank = append(lg.rank, float64(d)/float64(len(keys)))

	buf := append([]optipart.Key(nil), keys...)
	s = tr.begin("probe psort.TreeSort", root, op, c)
	t = time.Now()
	psort.TreeSort(curve, buf)
	d = time.Since(t)
	tr.end(s, int64(len(buf)))
	lg.sort = append(lg.sort, ms(d))
}

// miss times an in-process Service.Do on a fresh unique request (against
// the probe service, so the measured service's counters stay clean).
func (p *serviceProbe) miss(tr *tracer, g *serviceRig, seed int64, op, c, j int, lg *clientLog) {
	p.keys = g.missKeys(p.keys, seed, c, 1<<30+j)
	req := g.request(p.keys)
	s := tr.begin("probe Service.Do miss", -1, op, c)
	t := time.Now()
	_, hit, err := g.probeSvc.Do(req)
	d := time.Since(t)
	tr.end(s, int64(len(req.Keys)))
	if err == nil && !hit {
		lg.doMiss = append(lg.doMiss, ms(d))
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// serviceCommPerMiss runs, once, the partitioning world a miss computes —
// canonicalize a pool octree, then ModelDriven Partition without exchange
// on equal blocks — and returns its collectives, bytes and messages.
func serviceCommPerMiss(g *serviceRig) (colls, byts, msgs float64, err error) {
	curve := optipart.NewCurve(optipart.Hilbert, 3)
	keys := append([]optipart.Key(nil), g.pool[0]...)
	psort.TreeSort(curve, keys)
	canon := octree.LinearizeSorted(keys)
	p := g.sz.ranks
	var c0 int
	st, err := world(p, optipart.Clemson32(), true, func(c *optipart.Comm) {
		lo, hi := len(canon)*c.Rank()/p, len(canon)*(c.Rank()+1)/p
		optipart.Partition(c, canon[lo:hi], optipart.Options{Curve: curve, Mode: optipart.ModelDriven, Machine: optipart.Clemson32(), SkipExchange: true})
		if c.Rank() == 0 {
			c0 = c.CollectiveIndex()
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return float64(c0), float64(sumI64(st.BytesSent)), float64(sumI64(st.MsgsSent)), nil
}
