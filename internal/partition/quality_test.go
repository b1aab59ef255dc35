package partition

import (
	"math"
	"math/rand"
	"testing"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/octree"
	"optipart/internal/sfc"
)

// oracleQuality is Algorithm 2 as the paper states it: every element asks
// the splitters for the owner of each same-size face neighbor. It shares
// only the charge and the reduction with the rank-space scan, so a
// differential test against it checks the span classification alone.
func oracleQuality(c *comm.Comm, curve *sfc.Curve, local []sfc.Key, sp *Splitters) Quality {
	p := sp.P()
	counts := make([]int64, 2*p)
	for _, k := range local {
		o := sp.Owner(k)
		counts[o]++
		for _, f := range octree.Faces(curve.Dim) {
			nk, ok := octree.FaceNeighbor(k, f)
			if ok && sp.Owner(nk) != o {
				counts[p+o]++
				break
			}
		}
	}
	return reduceQuality(c, curve.Dim, len(local), counts)
}

// pricedQuality is a quality together with what evaluating it cost the rank
// in modeled time and collectives.
type pricedQuality struct {
	q     Quality
	dt    float64
	colls int
}

func priced(c *comm.Comm, eval func() Quality) pricedQuality {
	t0, k0 := c.Clock(), c.CollectiveIndex()
	q := eval()
	return pricedQuality{q, c.Clock() - t0, c.CollectiveIndex() - k0}
}

// sepSet assembles a separator list in curve order: keys sorted along the
// curve, then infs copies of InfKey.
func sepSet(curve *sfc.Curve, infs int, keys ...sfc.Key) []sfc.Key {
	out := append([]sfc.Key(nil), keys...)
	octree.Sort(curve, out)
	for i := 0; i < infs; i++ {
		out = append(out, InfKey)
	}
	return out
}

// qualityFixture returns a sorted adversarial element set for curve: random
// octants of every level from 0 to MaxLevel, a uniform level-2 grid (whose
// face neighbors are themselves elements, so separators drawn from the set
// land exactly on neighbors), the root (a level-0 element with no in-domain
// neighbor), octants on each domain face, and MaxLevel octants in the far
// corner.
func qualityFixture(rng *rand.Rand, curve *sfc.Curve, n int) []sfc.Key {
	dim := curve.Dim
	keys := octree.RandomKeys(rng, n, dim, octree.Normal, 0, sfc.MaxLevel)
	for i := uint64(0); i < 1<<(2*dim); i++ {
		keys = append(keys, curve.KeyAtIndex(i, 2))
	}
	keys = append(keys, sfc.RootKey)
	const top = uint32(1) << sfc.MaxLevel
	for i := 0; i < 4 && i < len(keys); i++ {
		k := keys[rng.Intn(len(keys))]
		lo, hi := k, k
		lo.X = 0
		hi.Y = top - k.Size()
		keys = append(keys, lo, hi)
	}
	corner := sfc.Key{X: top - 1, Y: top - 1, Level: sfc.MaxLevel}
	if dim == 3 {
		corner.Z = top - 1
	}
	keys = append(keys, corner, sfc.Key{Level: sfc.MaxLevel})
	octree.Sort(curve, keys)
	return keys
}

// adversarialSeps returns separator sets of p-1 entries for the sorted
// element set keys: snapped-like ancestors at even quantiles, RootKey and
// InfKey extremes, duplicates that leave partitions empty, and separators
// on domain-face and MaxLevel keys.
func adversarialSeps(rng *rand.Rand, curve *sfc.Curve, keys []sfc.Key, p int) [][]sfc.Key {
	m := p - 1
	pick := func() sfc.Key { return keys[rng.Intn(len(keys))] }
	var quant, face, deep, random []sfc.Key
	for i := 1; i <= m; i++ {
		k := keys[i*len(keys)/p]
		quant = append(quant, k.Ancestor(k.Level/2))
		f := pick()
		f.X = 0
		face = append(face, f)
		d := pick()
		deep = append(deep, sfc.Key{X: d.X, Y: d.Y, Z: d.Z, Level: sfc.MaxLevel})
		random = append(random, pick())
	}
	dup := make([]sfc.Key, m)
	for i := range dup {
		dup[i] = keys[len(keys)/2]
	}
	roots := make([]sfc.Key, m)
	sets := [][]sfc.Key{
		sepSet(curve, 0, quant...),
		sepSet(curve, 0, roots...), // every separator RootKey
		sepSet(curve, m),           // every separator InfKey
		sepSet(curve, 0, dup...),
		sepSet(curve, 0, face...),
		sepSet(curve, 0, deep...),
		sepSet(curve, 0, random...),
	}
	if m >= 2 {
		sets = append(sets, sepSet(curve, 1, append([]sfc.Key{sfc.RootKey}, random[1:m-1]...)...))
	}
	return sets
}

// checkQualityPaths prices every separator set through each production path
// — the selector Partition uses, the reseeded selector of Repartition's
// descent, and the public function on the sorted and on a shuffled local
// array — and reports any difference from the oracle in the quality, the
// modeled time charged, or the collectives issued. Collective: every rank
// calls it with the same sets.
func checkQualityPaths(t testing.TB, c *comm.Comm, curve *sfc.Curve, local []sfc.Key, weight func(sfc.Key) int64, sets [][]sfc.Key) {
	sel := newSelector(c, curve, local, 0, weight)
	walk := sel.reseed()
	shuffled := append([]sfc.Key(nil), local...)
	rand.New(rand.NewSource(int64(c.Rank()))).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for si, seps := range sets {
		sp := &Splitters{Curve: curve, Seps: seps}
		want := priced(c, func() Quality { return oracleQuality(c, curve, local, sp) })
		paths := []struct {
			name string
			eval func() Quality
		}{
			{"partition", func() Quality { return sel.quality(sp) }},
			{"repartition", func() Quality { return walk.quality(sp) }},
			{"public", func() Quality { return EvaluateQuality(c, curve, local, sp) }},
			{"public-unsorted", func() Quality { return EvaluateQuality(c, curve, shuffled, sp) }},
		}
		for _, path := range paths {
			got := priced(c, path.eval)
			if got.q != want.q {
				t.Errorf("%v dim %d rank %d set %d %s: quality %+v, oracle %+v", curve.Kind, curve.Dim, c.Rank(), si, path.name, got.q, want.q)
			}
			if got.colls != want.colls || math.Abs(got.dt-want.dt) > 1e-9*want.dt {
				t.Errorf("%v dim %d rank %d set %d %s: charged %g s over %d collectives, oracle %g s over %d", curve.Kind, curve.Dim, c.Rank(), si, path.name, got.dt, got.colls, want.dt, want.colls)
			}
		}
	}
}

func qualityWeight(k sfc.Key) int64 { return 1 + int64(k.Level%3) }

// TestQualityMatchesOracle: the rank-space scan agrees with the literal
// Algorithm 2 on every path, curve, dimension and weighting, under
// adversarial separators.
func TestQualityMatchesOracle(t *testing.T) {
	const p = 4
	cm := machine.Titan().CostModel()
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		for _, dim := range []int{2, 3} {
			for _, weight := range []func(sfc.Key) int64{nil, qualityWeight} {
				curve := sfc.NewCurve(kind, dim)
				rng := rand.New(rand.NewSource(int64(41*dim) + int64(kind)))
				keys := qualityFixture(rng, curve, 1500)
				sets := adversarialSeps(rng, curve, keys, p)
				if _, err := comm.RunChecked(p, cm, func(c *comm.Comm) error {
					var local []sfc.Key
					for i := c.Rank(); i < len(keys); i += p {
						local = append(local, keys[i])
					}
					checkQualityPaths(t, c, curve, local, weight, sets)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestQualityMatchesOracleParallelFill covers the selector's pooled rank
// fill, which only runs above parCutoff local elements.
func TestQualityMatchesOracleParallelFill(t *testing.T) {
	if testing.Short() {
		t.Skip("large fixture")
	}
	const p = 2
	curve := sfc.NewCurve(sfc.Hilbert, 3)
	rng := rand.New(rand.NewSource(43))
	keys := qualityFixture(rng, curve, 2*parCutoff+100)
	sets := adversarialSeps(rng, curve, keys, p)
	if _, err := comm.RunChecked(p, machine.Titan().CostModel(), func(c *comm.Comm) error {
		var local []sfc.Key
		for i := c.Rank(); i < len(keys); i += p {
			local = append(local, keys[i])
		}
		checkQualityPaths(t, c, curve, local, qualityWeight, sets)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRootElementIsNeverBoundary: a level-0 element has no in-domain face
// neighbor, so no separator placement can make it a boundary octant.
func TestRootElementIsNeverBoundary(t *testing.T) {
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		for _, dim := range []int{2, 3} {
			curve := sfc.NewCurve(kind, dim)
			sets := [][]sfc.Key{
				sepSet(curve, 0, sfc.RootKey),
				sepSet(curve, 1),
				sepSet(curve, 0, sfc.Key{Level: sfc.MaxLevel}),
			}
			comm.Run(1, comm.CostModel{}, func(c *comm.Comm) {
				local := []sfc.Key{sfc.RootKey}
				sel := newSelector(c, curve, local, 0, nil)
				for si, seps := range sets {
					sp := &Splitters{Curve: curve, Seps: seps}
					for _, q := range []Quality{sel.quality(sp), EvaluateQuality(c, curve, local, sp)} {
						if q.N != 1 || q.Ctot != 0 {
							t.Errorf("%v dim %d set %d: root element quality %+v, want N=1 Ctot=0", kind, dim, si, q)
						}
					}
				}
			})
		}
	}
}

// TestPartitionAndRepartitionQualityMatchOracle: the quality a full
// Partition or Repartition call reports for its adopted placement is the
// oracle's.
func TestPartitionAndRepartitionQualityMatchOracle(t *testing.T) {
	const p = 6
	for _, kind := range []sfc.Kind{sfc.Morton, sfc.Hilbert} {
		for _, dim := range []int{2, 3} {
			for _, weight := range []func(sfc.Key) int64{nil, qualityWeight} {
				curve := sfc.NewCurve(kind, dim)
				opts := Options{Curve: curve, Mode: ModelDriven, Machine: machine.Titan(), Weight: weight, SkipExchange: true}
				comm.Run(p, comm.CostModel{}, func(c *comm.Comm) {
					rng := rand.New(rand.NewSource(int64(500 + 10*dim + c.Rank())))
					local := octree.RandomKeys(rng, 700, dim, octree.Normal, 1, 16)
					res := Partition(c, local, opts) // sorts local in place
					if want := oracleQuality(c, curve, local, res.Splitters); res.Quality != want {
						t.Errorf("%v dim %d rank %d: Partition quality %+v, oracle %+v", kind, dim, c.Rank(), res.Quality, want)
					}
					// Refine a run of elements so the prior placement is
					// violated and every rung of the ladder is priced.
					next := append([]sfc.Key(nil), local...)
					if c.Rank() == 0 {
						next = next[:0]
						for _, k := range local {
							for label := 0; label < curve.NumChildren(); label++ {
								next = append(next, k.Child(label))
							}
						}
					}
					rr := Repartition(c, next, RepartOptions{Options: opts, Prior: res.Splitters})
					if want := oracleQuality(c, curve, next, rr.Splitters); rr.Quality != want {
						t.Errorf("%v dim %d rank %d: Repartition quality %+v, oracle %+v", kind, dim, c.Rank(), rr.Quality, want)
					}
				})
			}
		}
	}
}

// FuzzQualityMatchesOracle: for any element set and any monotone separator
// list drawn from it (RootKey, InfKey and duplicates included), every
// quality path agrees with the oracle.
func FuzzQualityMatchesOracle(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(3), true, true, false, []byte{10, 20, 30})
	f.Add(int64(2), uint16(50), uint8(2), false, false, true, []byte{0, 0, 255})
	f.Add(int64(3), uint16(1), uint8(4), true, false, false, []byte{255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, ps uint8, hilbert, dim3, weighted bool, picks []byte) {
		kind, dim := sfc.Morton, 2
		if hilbert {
			kind = sfc.Hilbert
		}
		if dim3 {
			dim = 3
		}
		var weight func(sfc.Key) int64
		if weighted {
			weight = qualityWeight
		}
		p := 1 + int(ps%4)
		curve := sfc.NewCurve(kind, dim)
		rng := rand.New(rand.NewSource(seed))
		keys := qualityFixture(rng, curve, int(n%300))
		// Separators from the picks: 255 is InfKey, 254 RootKey, anything
		// else an element of the fixture (repeats allowed).
		var sepKeys []sfc.Key
		infs := 0
		for i := 0; i < p-1; i++ {
			var b byte
			if i < len(picks) {
				b = picks[i]
			}
			switch b {
			case 255:
				infs++
			case 254:
				sepKeys = append(sepKeys, sfc.RootKey)
			default:
				sepKeys = append(sepKeys, keys[int(b)*len(keys)/254])
			}
		}
		sets := [][]sfc.Key{sepSet(curve, infs, sepKeys...)}
		if _, err := comm.RunChecked(p, machine.Titan().CostModel(), func(c *comm.Comm) error {
			var local []sfc.Key
			for i := c.Rank(); i < len(keys); i += p {
				local = append(local, keys[i])
			}
			checkQualityPaths(t, c, curve, local, weight, sets)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	})
}
