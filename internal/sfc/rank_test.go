package sfc

import (
	"math/rand"
	"testing"
)

// randomKeyAnyLevel draws a valid key of any level in [0, MaxLevel],
// including levels too deep for Index (> 64/dim), which Rank must handle.
func randomKeyAnyLevel(rng *rand.Rand, dim int) Key {
	level := uint8(rng.Intn(MaxLevel + 1))
	mask := ^lowMask(MaxLevel - int(level))
	k := Key{
		X:     rng.Uint32() & mask & (1<<MaxLevel - 1),
		Y:     rng.Uint32() & mask & (1<<MaxLevel - 1),
		Level: level,
	}
	if dim == 3 {
		k.Z = rng.Uint32() & mask & (1<<MaxLevel - 1)
	}
	return k
}

// TestRankMatchesCompare is the defining invariant of linearized ranks:
// integer order over Rank must agree exactly with the tree-walking Compare,
// for both curves, both dimensions, and arbitrary (including maximally deep)
// levels.
func TestRankMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, kind := range []Kind{Morton, Hilbert} {
		for _, dim := range []int{2, 3} {
			c := NewCurve(kind, dim)
			for trial := 0; trial < 20000; trial++ {
				a := randomKeyAnyLevel(rng, dim)
				b := randomKeyAnyLevel(rng, dim)
				if trial%7 == 0 {
					b = a // exercise equality
				}
				if trial%11 == 0 && a.Level > 0 {
					b = a.Ancestor(uint8(rng.Intn(int(a.Level) + 1))) // exercise ancestry
				}
				want := c.Compare(a, b)
				got := c.Rank(a).Compare(c.Rank(b))
				if got != want {
					t.Fatalf("%v dim=%d: Rank order %d != Compare %d for %v vs %v (ranks %v %v)",
						kind, dim, got, want, a, b, c.Rank(a), c.Rank(b))
				}
			}
		}
	}
}

// TestRankAgreesWithIndex checks that for levels shallow enough for Index,
// the rank is exactly the index padded to MaxLevel digits with the level
// appended — i.e. Rank is the natural 128-bit extension of Index.
func TestRankAgreesWithIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range []Kind{Morton, Hilbert} {
		for _, dim := range []int{2, 3} {
			c := NewCurve(kind, dim)
			for trial := 0; trial < 5000; trial++ {
				k := randomKeyAnyLevel(rng, dim)
				if int(k.Level)*dim > 64 {
					continue
				}
				idx := c.Index(k)
				pad := uint(dim*(MaxLevel-int(k.Level)) + rankLevelBits)
				var want Rank128
				if pad >= 64 {
					want = Rank128{Hi: idx << (pad - 64)}
				} else {
					want = Rank128{Hi: idx >> (64 - pad), Lo: idx << pad}
				}
				want.Lo |= uint64(k.Level)
				if got := c.Rank(k); got != want {
					t.Fatalf("%v dim=%d: Rank(%v) = %v, want %v (index %d)", kind, dim, k, got, want, idx)
				}
			}
		}
	}
}

// TestRankSentinel checks that no valid key reaches the +infinity rank.
func TestRankSentinel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, kind := range []Kind{Morton, Hilbert} {
		c := NewCurve(kind, 3)
		deepest := Key{X: 1<<MaxLevel - 1, Y: 1<<MaxLevel - 1, Z: 1<<MaxLevel - 1, Level: MaxLevel}
		if !c.Rank(deepest).Less(MaxRank128) {
			t.Fatalf("%v: deepest key rank %v not below MaxRank128", kind, c.Rank(deepest))
		}
		for i := 0; i < 1000; i++ {
			if k := randomKeyAnyLevel(rng, 3); !c.Rank(k).Less(MaxRank128) {
				t.Fatalf("%v: key %v rank reaches sentinel", kind, k)
			}
		}
	}
}

// TestNewCurveMemoized checks that curve construction is cached per
// (Kind, Dim) and that cached instances still behave.
func TestNewCurveMemoized(t *testing.T) {
	for _, kind := range []Kind{Morton, Hilbert} {
		for _, dim := range []int{2, 3} {
			a := NewCurve(kind, dim)
			b := NewCurve(kind, dim)
			if a != b {
				t.Fatalf("NewCurve(%v, %d) not memoized", kind, dim)
			}
			if a.NumChildren() != 1<<dim {
				t.Fatalf("cached curve broken: NumChildren = %d", a.NumChildren())
			}
		}
	}
	if NewCurve(Morton, 2) == NewCurve(Morton, 3) {
		t.Fatal("distinct dims share a cache slot")
	}
	if NewCurve(Morton, 3) == NewCurve(Hilbert, 3) {
		t.Fatal("distinct kinds share a cache slot")
	}
}

// FuzzRankOrder fuzzes the order invariant over raw key material.
func FuzzRankOrder(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint8(0), uint32(1), uint32(2), uint32(3), uint8(5), false)
	f.Add(uint32(1<<29), uint32(1<<28), uint32(1<<27), uint8(30), uint32(0), uint32(0), uint32(0), uint8(30), true)
	f.Fuzz(func(t *testing.T, ax, ay, az uint32, al uint8, bx, by, bz uint32, bl uint8, hilbert bool) {
		kind := Morton
		if hilbert {
			kind = Hilbert
		}
		c := NewCurve(kind, 3)
		a := clampKey(ax, ay, az, al)
		b := clampKey(bx, by, bz, bl)
		want := c.Compare(a, b)
		if got := c.Rank(a).Compare(c.Rank(b)); got != want {
			t.Fatalf("Rank order %d != Compare %d for %v vs %v", got, want, a, b)
		}
	})
}

// clampKey forces arbitrary fuzz material into a valid key.
func clampKey(x, y, z uint32, level uint8) Key {
	if level > MaxLevel {
		level = level % (MaxLevel + 1)
	}
	mask := ^lowMask(MaxLevel-int(level)) & (1<<MaxLevel - 1)
	return Key{X: x & mask, Y: y & mask, Z: z & mask, Level: level}
}

// oracleFaceSpan is FaceSpan's literal definition: build each same-level
// neighbor by stepping one anchor coordinate by ±Size, skip those outside
// the domain, and rank every one from the root.
func oracleFaceSpan(c *Curve, k Key) (self, lo, hi Rank128) {
	self = c.Rank(k)
	lo, hi = self, self
	size := k.Size()
	for axis := 0; axis < c.Dim; axis++ {
		for _, plus := range []bool{false, true} {
			xyz := [3]uint32{k.X, k.Y, k.Z}
			switch {
			case plus && xyz[axis]+size < 1<<MaxLevel:
				xyz[axis] += size
			case !plus && xyz[axis] != 0:
				xyz[axis] -= size
			default:
				continue
			}
			r := c.Rank(Key{X: xyz[0], Y: xyz[1], Z: xyz[2], Level: k.Level})
			if r.Less(lo) {
				lo = r
			}
			if hi.Less(r) {
				hi = r
			}
		}
	}
	return self, lo, hi
}

func checkFaceSpan(t *testing.T, c *Curve, k Key) {
	t.Helper()
	s, lo, hi := c.FaceSpan(k)
	ws, wlo, whi := oracleFaceSpan(c, k)
	if s != ws || lo != wlo || hi != whi {
		t.Fatalf("%v dim=%d: FaceSpan(%v) = (%v, %v, %v), want (%v, %v, %v)",
			c.Kind, c.Dim, k, s, lo, hi, ws, wlo, whi)
	}
}

// TestFaceSpanMatchesRank holds the fused FaceSpan kernel to its oracle on
// both curves and dimensions, at every level (0, 1, 21 and 22 — the edges
// of the one-word 3-D path — and MaxLevel among them). Besides random keys,
// every level tries each combination of coordinates on the low and high
// domain faces and on either side of the mid-plane, where a ± step carries
// or borrows through every bit so the neighbor diverges at level 1.
func TestFaceSpanMatchesRank(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, kind := range []Kind{Morton, Hilbert} {
		for _, dim := range []int{2, 3} {
			c := NewCurve(kind, dim)
			for level := 0; level <= MaxLevel; level++ {
				size := uint32(1) << (MaxLevel - level)
				var special []uint32
				for _, v := range []uint32{0, 1<<(MaxLevel-1) - size, 1 << (MaxLevel - 1), 1<<MaxLevel - size} {
					if v < 1<<MaxLevel && v%size == 0 {
						special = append(special, v)
					}
				}
				for trial := 0; trial < 300; trial++ {
					k := randomKey(rng, dim, uint8(level))
					xyz := [3]*uint32{&k.X, &k.Y, &k.Z}
					for axis := 0; axis < dim; axis++ {
						if j := rng.Intn(len(special) + 1); j < len(special) {
							*xyz[axis] = special[j]
						}
					}
					checkFaceSpan(t, c, k)
				}
				for _, x := range special {
					for _, y := range special {
						for _, z := range special {
							if dim == 2 {
								z = 0
							}
							checkFaceSpan(t, c, Key{X: x, Y: y, Z: z, Level: uint8(level)})
						}
					}
				}
			}
		}
	}
}
