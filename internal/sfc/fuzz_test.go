package sfc

import "testing"

// FuzzIndexRoundTrip fuzzes the curve index encode/decode pair: any
// (coords, level) must survive Index → KeyAtIndex unchanged, for both
// curves.
func FuzzIndexRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint8(1), false)
	f.Add(uint32(123456), uint32(654321), uint32(42), uint8(10), true)
	f.Add(^uint32(0), ^uint32(0), ^uint32(0), uint8(21), true)
	f.Fuzz(func(t *testing.T, x, y, z uint32, lvl uint8, hilbert bool) {
		level := lvl % 22 // Index is defined for 3·level ≤ 64
		k := keyAt(x, y, z, level)
		kind := Morton
		if hilbert {
			kind = Hilbert
		}
		c := NewCurve(kind, 3)
		idx := c.Index(k)
		got := c.KeyAtIndex(idx, level)
		if got != k {
			t.Fatalf("%v: KeyAtIndex(Index(%v)) = %v", kind, k, got)
		}
	})
}

// FuzzCompareConsistent fuzzes the ordering: Compare must be antisymmetric
// and agree with index comparison at equal levels.
func FuzzCompareConsistent(f *testing.F) {
	f.Add(uint32(1), uint32(2), uint32(3), uint32(4), uint32(5), uint32(6), uint8(7))
	f.Fuzz(func(t *testing.T, ax, ay, az, bx, by, bz uint32, lvl uint8) {
		level := 1 + lvl%21
		c := NewCurve(Hilbert, 3)
		a := keyAt(ax, ay, az, level)
		b := keyAt(bx, by, bz, level)
		if c.Compare(a, b) != -c.Compare(b, a) {
			t.Fatalf("Compare not antisymmetric for %v, %v", a, b)
		}
		ia, ib := c.Index(a), c.Index(b)
		want := 0
		if ia < ib {
			want = -1
		} else if ia > ib {
			want = 1
		}
		if got := c.Compare(a, b); got != want {
			t.Fatalf("Compare(%v, %v) = %d, index order says %d", a, b, got, want)
		}
	})
}

// FuzzFaceSpan fuzzes the fused kernel against the per-neighbor oracle over
// both curves and dimensions and every level, on the valid key the fuzz
// material aligns to and on the raw material itself (unaligned anchors,
// coordinates past the domain, Z set in 2-D), where FaceSpan must still
// agree with ranking each stepped neighbor.
func FuzzFaceSpan(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint32(0), uint8(0), false, false)
	f.Add(uint32(1<<29-1), uint32(1<<29), uint32(0), uint8(21), true, true)
	f.Add(uint32(1<<29), uint32(1<<30-1), uint32(1<<29-1), uint8(30), true, true)
	f.Add(uint32(1<<29-8), uint32(12345), uint32(7), uint8(27), true, false)
	f.Fuzz(func(t *testing.T, x, y, z uint32, lvl uint8, hilbert, dim3 bool) {
		kind, dim := Morton, 2
		if hilbert {
			kind = Hilbert
		}
		if dim3 {
			dim = 3
		}
		c := NewCurve(kind, dim)
		valid := clampKey(x, y, z, lvl)
		if dim == 2 {
			valid.Z = 0
		}
		checkFaceSpan(t, c, valid)
		checkFaceSpan(t, c, Key{X: x, Y: y, Z: z, Level: valid.Level})
	})
}
