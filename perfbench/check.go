package main

import (
	"fmt"

	"optipart"
	"optipart/internal/partition"
	"optipart/internal/psort"
)

// checkSeps verifies p-1 separators that never decrease along the curve
// (a rank that owns nothing starts at the sentinel, and every later
// separator must be the sentinel too).
func checkSeps(curve *optipart.Curve, seps []optipart.Key, p int) error {
	if len(seps) != p-1 {
		return fmt.Errorf("placement has %d separators for %d ranks", len(seps), p)
	}
	for i := 1; i < len(seps); i++ {
		prev, cur := seps[i-1], seps[i]
		switch {
		case partition.IsInf(prev) && !partition.IsInf(cur):
			return fmt.Errorf("separator %d follows the end-of-curve sentinel", i)
		case !partition.IsInf(prev) && !partition.IsInf(cur) && curve.Compare(prev, cur) > 0:
			return fmt.Errorf("separators %d and %d are out of curve order", i-1, i)
		}
	}
	return nil
}

// checkPlacement verifies a distributed placement: monotone separators,
// each rank's elements sorted along the curve and owned by that rank, ranks
// in curve order, and local counts summing to n.
func checkPlacement(sp *optipart.Splitters, locals [][]optipart.Key, n int) error {
	p := len(locals)
	if err := checkSeps(sp.Curve, sp.Seps, p); err != nil {
		return err
	}
	total := 0
	var last *optipart.Key
	for r, local := range locals {
		total += len(local)
		if len(local) == 0 {
			continue
		}
		if !psort.IsSorted(sp.Curve, local) {
			return fmt.Errorf("rank %d's elements are not in curve order", r)
		}
		first, end := local[0], local[len(local)-1]
		if o := sp.Owner(first); o != r {
			return fmt.Errorf("rank %d holds %v, which the splitters give to rank %d", r, first, o)
		}
		if o := sp.Owner(end); o != r {
			return fmt.Errorf("rank %d holds %v, which the splitters give to rank %d", r, end, o)
		}
		if last != nil && sp.Curve.Compare(*last, first) > 0 {
			return fmt.Errorf("rank %d starts before rank %d ends", r, r-1)
		}
		last = &local[len(local)-1]
	}
	if total != n {
		return fmt.Errorf("placement holds %d elements, want %d", total, n)
	}
	return nil
}

// checkCounts verifies a placement reported as per-rank counts (the
// service's form): monotone separators, counts summing to the canonical
// size, and the quality's work maximum matching the largest count.
func checkCounts(curve *optipart.Curve, seps []optipart.Key, counts []int, numKeys int, q optipart.Quality, tp float64) error {
	if err := checkSeps(curve, seps, len(counts)); err != nil {
		return err
	}
	total, most := 0, 0
	for _, c := range counts {
		if c < 0 {
			return fmt.Errorf("negative count %d", c)
		}
		total += c
		most = max(most, c)
	}
	switch {
	case total != numKeys:
		return fmt.Errorf("counts sum to %d, canonical size is %d", total, numKeys)
	case q.N != int64(numKeys):
		return fmt.Errorf("quality covers %d elements, canonical size is %d", q.N, numKeys)
	case q.Wmax != int64(most):
		return fmt.Errorf("quality Wmax %d, largest count %d", q.Wmax, most)
	case !(tp > 0):
		return fmt.Errorf("predicted Tp %v is not positive", tp)
	}
	return nil
}

// digest is a 64-bit FNV-style fold used to compare outputs across ops.
type digest uint64

const digestInit digest = 14695981039346656037

func (d digest) word(w uint64) digest {
	return (d ^ digest(w)) * 1099511628211
}

func (d digest) keys(ks []optipart.Key) digest {
	d = d.word(uint64(len(ks)))
	for _, k := range ks {
		d = d.word(uint64(k.X)<<32 | uint64(k.Y))
		d = d.word(uint64(k.Z)<<8 | uint64(k.Level))
	}
	return d
}
