package cluster

import (
	"fmt"
	"slices"

	"cloud9/internal/search"
)

// Strategy portfolios (§3.3 heterogeneous per-worker policies): the
// portfolio is a static table — BalancerConfig.Portfolio, slot i → spec,
// for the whole run. A joining worker is handed the lowest slot still
// below its equal share (desiredAllocation) among the members that hold
// a slot, and runs that spec until it leaves: nothing is reassigned
// mid-run. The balancer reads which slot a member holds from the spec its
// statuses report (slotOf). Which slot earns coverage is reported
// (SpecYield, c9_lb_slot_yield) and steers nothing. Assignment is
// deterministic, so the lock-step simulation reproduces it bit-for-bit.

// checkPortfolio rejects a portfolio with an entry internal/search cannot
// build, before any worker is handed one.
func checkPortfolio(specs []string) error {
	for _, spec := range specs {
		if err := search.Validate(spec); err != nil {
			return fmt.Errorf("cluster: portfolio: %w", err)
		}
	}
	return nil
}

// desiredAllocation distributes n workers over the portfolio slots in
// equal shares: n/k each, the first n%k slots one more — so every slot
// is manned before any gets a second worker.
func (lb *LoadBalancer) desiredAllocation(n int) []int {
	k := len(lb.cfg.Portfolio)
	alloc := make([]int, k)
	if n <= 0 || k == 0 {
		return alloc
	}
	for i := range alloc {
		alloc[i] = n / k
		if i < n%k {
			alloc[i]++
		}
	}
	return alloc
}

// slotOf is the portfolio slot that runs spec, -1 for a spec that is no
// slot's (c9-worker -strategy may run one of its own).
func (lb *LoadBalancer) slotOf(spec string) int {
	return slices.Index(lb.cfg.Portfolio, spec)
}

// specCounts tallies current members per portfolio slot and returns
// how many members hold one.
func (lb *LoadBalancer) specCounts() ([]int, int) {
	counts := make([]int, len(lb.cfg.Portfolio))
	n := 0
	for _, m := range lb.Members {
		if m.SpecIdx >= 0 {
			counts[m.SpecIdx]++
			n++
		}
	}
	return counts, n
}

// assignSpec picks the portfolio slot for a joining member (called
// before the member is inserted): the lowest-index slot still below
// its desired share in the post-join allocation. One always is: the
// shares of n+1 members sum to n+1, the counts of n members to n.
func (lb *LoadBalancer) assignSpec() (int, string) {
	if len(lb.cfg.Portfolio) == 0 {
		return -1, ""
	}
	counts, n := lb.specCounts()
	desired := lb.desiredAllocation(n + 1)
	i := 0
	for counts[i] >= desired[i] {
		i++
	}
	return i, lb.cfg.Portfolio[i]
}
