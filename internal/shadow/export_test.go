package shadow

import (
	"fmt"
	"math"

	"triplec/internal/core"
	"triplec/internal/tasks"
)

// denseRLS is the per-task recursion the grouped covariance replaced: every
// task its own full 11×11 P, with the same rlsMaxDiag bound.
type denseRLS struct {
	w, px, kv [ridgeDim]float64
	p         [ridgeDim * ridgeDim]float64
	count     int
	mean      float64
}

func (s *denseRLS) update(x *[ridgeDim]float64, y, lambda float64) {
	s.count++
	s.mean += (y - s.mean) / float64(s.count)
	maxDiag := 0.0
	for i := 0; i < ridgeDim; i++ {
		maxDiag = max(maxDiag, s.p[i*ridgeDim+i])
	}
	inflate := lambda
	if maxDiag > rlsMaxDiag {
		inflate = 1
	}
	denom := lambda
	for i := 0; i < ridgeDim; i++ {
		v := 0.0
		for j := 0; j < ridgeDim; j++ {
			v += s.p[i*ridgeDim+j] * x[j]
		}
		s.px[i] = v
		denom += v * x[i]
	}
	for i := 0; i < ridgeDim; i++ {
		s.kv[i] = s.px[i] / denom
	}
	e := y
	for i := 0; i < ridgeDim; i++ {
		e -= s.w[i] * x[i]
	}
	for i := 0; i < ridgeDim; i++ {
		s.w[i] += s.kv[i] * e
	}
	for i := 0; i < ridgeDim; i++ {
		for j := 0; j < ridgeDim; j++ {
			s.p[i*ridgeDim+j] = (s.p[i*ridgeDim+j] - s.kv[i]*s.px[j]) / inflate
		}
	}
}

// RidgeOracle feeds a RidgeBackend and the dense per-task recursion the
// same frames.
type RidgeOracle struct {
	b     *RidgeBackend
	dense [tasks.NumNames]denseRLS
}

func NewRidgeOracle() *RidgeOracle {
	o := &RidgeOracle{b: NewRidgeBackend()}
	for ti := range o.dense {
		for i := 0; i < ridgeDim; i++ {
			o.dense[ti].p[i*ridgeDim+i] = rlsPrior
		}
	}
	return o
}

func (o *RidgeOracle) Observe(obs *core.Observation) {
	o.b.Observe(obs)
	for ti := range o.dense {
		if obs.Mask&(1<<ti) != 0 {
			o.dense[ti].update(&o.b.x, obs.Ms[ti], o.b.lambda)
		}
	}
}

// Groups is the number of covariances the backend keeps.
func (o *RidgeOracle) Groups() int { return o.b.groups }

// Mismatch describes the first bit in which a task's weights, count, mean
// or covariance differ from the dense recursion's, or returns "".
func (o *RidgeOracle) Mismatch() string {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for g := 0; g < o.b.groups; g++ {
		c := &o.b.cov[g]
		for ti := 0; ti < tasks.NumNames; ti++ {
			if o.b.members[g]&(1<<ti) == 0 {
				continue
			}
			s, d := &o.b.reg[ti], &o.dense[ti]
			if s.count != d.count || !same(s.mean, d.mean) {
				return fmt.Sprintf("task %d: count/mean %d/%v, dense %d/%v", ti, s.count, s.mean, d.count, d.mean)
			}
			for i := 0; i < ridgeDim; i++ {
				if !same(s.w[i], d.w[i]) {
					return fmt.Sprintf("task %d: w[%d] = %v, dense %v", ti, i, s.w[i], d.w[i])
				}
				for j := 0; j < ridgeDim; j++ {
					var p float64 // a never-excited coordinate's row and column are zero
					switch {
					case c.mask&(1<<i) != 0 && c.mask&(1<<j) != 0:
						p = c.p[i*ridgeDim+j]
					case i == j:
						p = c.idle
					}
					if !same(p, d.p[i*ridgeDim+j]) {
						return fmt.Sprintf("task %d: P[%d][%d] = %v, dense %v", ti, i, j, p, d.p[i*ridgeDim+j])
					}
				}
			}
		}
	}
	return ""
}
