package flowsim

import "fmt"

// Demand is one weighted traffic entry of a combined multi-job traffic
// matrix: Weight GB/s of offered load along one path, attributed to tenant
// (job) Tenant. Ports are the compiled port ids of the path's hops, in hop
// order. Unlike Flow, a Demand is satisfiable — a tenant whose demands all
// achieve their full weight suffers no contention.
type Demand struct {
	Ports  []int32
	Weight float64
	Tenant int32
}

// TenantShares prices all demands jointly with a weighted max-min
// water-filling over the shared fabric and returns each tenant's achieved
// share: (Σ achieved rate)/(Σ offered weight) over that tenant's demands,
// in (0, 1]. A tenant alone on an uncongested fabric gets exactly 1;
// contention on shared links pushes shares below 1 in proportion to
// weighted fair allocation. Tenants with no demands get share 1.
//
// It is Solve's fill run with weights over the given paths: each demand is
// one subflow rising at its weight per unit fill level, a link saturates
// when the weighted sum of its active subflows exhausts its capacity, and
// the fill level is capped at 1 — a subflow reaching level 1 has its
// demand fully met and stops growing. TenantShares has the same
// determinism and non-concurrency contract as Solve, and counts towards
// the same Stats.
func (s *Solver) TenantShares(demands []Demand, nTenants int) ([]float64, error) {
	if nTenants < 0 {
		return nil, fmt.Errorf("flowsim: negative tenant count %d", nTenants)
	}
	out := make([]float64, nTenants)
	for i := range out {
		out[i] = 1
	}
	if len(demands) == 0 {
		return out, nil
	}
	s.subOff = append(s.subOff[:0], 0)
	s.subLinks = s.subLinks[:0]
	s.weights = s.weights[:0]
	for i, d := range demands {
		if d.Weight <= 0 {
			return nil, fmt.Errorf("flowsim: demand %d has non-positive weight %v", i, d.Weight)
		}
		if d.Tenant < 0 || int(d.Tenant) >= nTenants {
			return nil, fmt.Errorf("flowsim: demand %d tenant %d out of range [0,%d)", i, d.Tenant, nTenants)
		}
		s.subLinks = append(s.subLinks, d.Ports...)
		s.subOff = append(s.subOff, int32(len(s.subLinks)))
		s.weights = append(s.weights, d.Weight)
	}
	// Fractional weights leave rounding residue in the per-link weight
	// sums and saturation levels; 1e-12 absorbs it (with exact comparisons
	// the joint solves, and so the scheduler's decisions, change).
	if err := s.waterfill(1, 1e-12); err != nil {
		return nil, err
	}

	s.sumRate = append(s.sumRate[:0], make([]float64, nTenants)...)
	s.sumW = append(s.sumW[:0], make([]float64, nTenants)...)
	for i, d := range demands {
		s.sumRate[d.Tenant] += s.rates[i]
		s.sumW[d.Tenant] += d.Weight
	}
	for t := 0; t < nTenants; t++ {
		if s.sumW[t] > 0 {
			sh := s.sumRate[t] / s.sumW[t]
			if sh > 1 {
				sh = 1
			}
			if sh < 0 {
				sh = 0
			}
			out[t] = sh
		}
	}
	return out, nil
}
