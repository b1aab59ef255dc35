package partition

import (
	"math"

	"optipart/internal/comm"
	"optipart/internal/machine"
	"optipart/internal/psort"
	"optipart/internal/sfc"
)

// Quality summarizes a candidate partition: the per-partition work and
// boundary-octant extrema from which the performance model predicts the
// runtime of subsequent computation (Algorithm 2, extended with the minima
// needed for the imbalance plots of Figure 11).
type Quality struct {
	N    int64 // global element count
	Wmax int64 // maximum elements assigned to one partition
	Wmin int64 // minimum elements assigned to one partition
	Cmax int64 // maximum boundary octants of one partition
	Cmin int64 // minimum boundary octants of one partition
	Ctot int64 // total boundary octants across partitions (∝ total data moved)
}

// LoadImbalance returns λ = Wmax/Wmin (§3.2). It is +Inf when a partition
// is empty.
func (q Quality) LoadImbalance() float64 {
	if q.Wmin == 0 {
		return math.Inf(1)
	}
	return float64(q.Wmax) / float64(q.Wmin)
}

// CommImbalance returns the boundary imbalance Cmax/Cmin (Figure 11).
func (q Quality) CommImbalance() float64 {
	if q.Cmin == 0 {
		return math.Inf(1)
	}
	return float64(q.Cmax) / float64(q.Cmin)
}

// Predict evaluates Eq. (3) for this quality on the given machine:
// Tp = α·tc·Wmax + tw·Cmax.
func (q Quality) Predict(m machine.Machine, alpha float64) float64 {
	return m.Predict(alpha, q.Wmax, q.Cmax)
}

// PredictKernel is Predict with an explicit ghost payload size (the
// application fingerprint of fem.Kernel).
func (q Quality) PredictKernel(m machine.Machine, alpha float64, payloadBytes int) float64 {
	return m.PredictKernel(alpha, payloadBytes, q.Wmax, q.Cmax)
}

// EvaluateQuality is Algorithm 2: every rank scans its local elements under
// the candidate splitters, classifying each as interior or boundary (an
// element is a boundary octant when a same-size face neighbor falls in a
// different partition), and a reduction produces the global per-partition
// work and boundary counts. One linear pass over the local elements plus a
// single O(p) reduction, as the paper requires.
//
// The paper's pseudocode reduces per-rank counts with MPI_MAX; since before
// the exchange a rank's local elements are only a sample of each candidate
// partition, we sum per-partition counts across ranks instead, which
// measures the same quantity exactly rather than approximately.
//
// The scan runs in rank space (see span); local need not be sorted.
// Partition and Repartition price their candidates through the selector's
// cached ranks and spans instead, so the curve is walked once per call
// rather than once per candidate.
func EvaluateQuality(c *comm.Comm, curve *sfc.Curve, local []sfc.Key, sp *Splitters) Quality {
	ranks := make([]sfc.Rank128, len(local))
	spans := make([]span, len(local))
	for i, k := range local {
		ranks[i], spans[i].lo, spans[i].hi = curve.FaceSpan(k)
	}
	return quality(c, curve.Dim, sp, ranks, spans)
}

// span is the closed rank interval covering an element and its in-domain
// same-size face neighbors (sfc.Curve.FaceSpan). An element without such
// neighbors (a level-0 root, say) spans just its own rank. It depends only
// on the element, never on the splitters, so it is computed once per
// element and reused for every candidate partition.
type span struct{ lo, hi sfc.Rank128 }

// quality is Algorithm 2 over precomputed element ranks and spans. An
// element owned by partition o has its rank, and hence a point of its span,
// in o's contiguous owner range [L, H) = [sepRanks[o-1], sepRanks[o]). Some
// neighbor falls in another partition exactly when the span leaves that
// range: lo < L or hi ≥ H. The owner is re-located by binary search only
// when an element's rank leaves the current range, which along a sorted
// array happens at most p-1 times.
func quality(c *comm.Comm, dim int, sp *Splitters, ranks []sfc.Rank128, spans []span) Quality {
	p := sp.P()
	seps := sp.ranks()
	counts := make([]int64, 2*p) // [work per partition | boundary per partition]
	o, lo, hi := -1, sfc.MaxRank128, sfc.Rank128{}
	for i, r := range ranks {
		if r.Less(lo) || !r.Less(hi) {
			o = sp.ownerOfRank(r)
			lo, hi = sfc.Rank128{}, sfc.MaxRank128
			if o > 0 {
				lo = seps[o-1]
			}
			if o < p-1 {
				hi = seps[o]
			}
		}
		counts[o]++
		if s := spans[i]; s.lo.Less(lo) || !s.hi.Less(hi) {
			counts[p+o]++
		}
	}
	return reduceQuality(c, dim, len(ranks), counts)
}

// reduceQuality charges the scan of n local elements as the paper's
// per-neighbor loop pays it, sums the per-partition counts
// ([work | boundary], 2p entries) across ranks, and extracts the extrema.
func reduceQuality(c *comm.Comm, dim, n int, counts []int64) Quality {
	p := len(counts) / 2
	// One pass over the elements: each touched 1+2·dim times.
	c.Compute(int64(n) * int64(1+2*dim) * psort.KeyBytes)
	global := comm.Allreduce(c, counts, 8, comm.SumI64)

	q := Quality{Wmin: math.MaxInt64, Cmin: math.MaxInt64}
	for r := 0; r < p; r++ {
		w, b := global[r], global[p+r]
		q.N += w
		q.Ctot += b
		if w > q.Wmax {
			q.Wmax = w
		}
		if w < q.Wmin {
			q.Wmin = w
		}
		if b > q.Cmax {
			q.Cmax = b
		}
		if b < q.Cmin {
			q.Cmin = b
		}
	}
	return q
}
