package cluster

import (
	"fmt"
	"slices"
	"strconv"

	"cloud9/internal/obs"
	"cloud9/internal/search"
)

// Strategy portfolios (§3.3 heterogeneous per-worker policies): the
// load balancer owns the assignment of internal/search strategy specs
// to workers, and the portfolio is a static table — BalancerConfig.
// Portfolio, slot i → spec, for the whole run. The unpinned members are
// spread over the slots in equal shares (desiredAllocation): a joining
// worker is handed the lowest slot still below its share, and when a
// member leaves, is evicted or pins its own strategy the others are
// moved to restore the shares. Which slot earns coverage is reported
// (SpecYield, c9_lb_slot_yield) and steers nothing: a second weight
// vector is a second entry, dist-opt(w=a:b:c:d). Every step is
// deterministic (sorted iteration, index tie-breaks) so the lock-step
// simulation reproduces assignments bit-for-bit.

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

// yieldSlot resolves which portfolio slot to credit for a status's
// coverage yield: the spec the worker *reports* running, not the one
// the LB last assigned — a hot-swap may still be in flight (or have
// failed worker-side), and crediting the assignment would attribute
// the old strategy's results to the new slot. Returns -1 when the
// reported spec maps to no slot (no portfolio, or a local override).
func (lb *LoadBalancer) yieldSlot(reported string, m *Member) int {
	if len(lb.cfg.Portfolio) == 0 {
		return -1
	}
	if reported == m.Spec {
		return m.SpecIdx
	}
	for i, s := range lb.cfg.Portfolio {
		if s == reported {
			return i
		}
	}
	return -1
}

// specCounts tallies current members per portfolio slot (pinned
// members hold no slot).
func (lb *LoadBalancer) specCounts() []int {
	counts := make([]int, len(lb.cfg.Portfolio))
	for _, m := range lb.Members {
		if !m.Pinned && m.SpecIdx >= 0 && m.SpecIdx < len(counts) {
			counts[m.SpecIdx]++
		}
	}
	return counts
}

// unpinned counts the members participating in portfolio allocation.
func (lb *LoadBalancer) unpinned() int {
	n := 0
	for _, m := range lb.Members {
		if !m.Pinned {
			n++
		}
	}
	return n
}

// assignSpec picks the portfolio slot for a joining member (called
// before the member is inserted): the lowest-index slot still below
// its desired share in the post-join allocation.
func (lb *LoadBalancer) assignSpec() (int, string) {
	k := len(lb.cfg.Portfolio)
	if k == 0 {
		return -1, ""
	}
	desired := lb.desiredAllocation(lb.unpinned() + 1)
	counts := lb.specCounts()
	for i := 0; i < k; i++ {
		if counts[i] < desired[i] {
			return i, lb.cfg.Portfolio[i]
		}
	}
	i := lb.NextID % k // all slots full (rounding): deterministic fallback
	return i, lb.cfg.Portfolio[i]
}

// rebalanceStrategies moves members from over- to under-allocated
// portfolio slots, emitting a MsgStrategy per reassignment. Newest
// members move first (highest id) — they have the least accumulated
// strategy state to throw away. A no-op while allocations match.
func (lb *LoadBalancer) rebalanceStrategies() []Outbound {
	k := len(lb.cfg.Portfolio)
	if k == 0 || len(lb.Members) == 0 {
		return nil
	}
	desired := lb.desiredAllocation(lb.unpinned())
	counts := lb.specCounts()
	var outs []Outbound
	for _, id := range slices.Backward(lb.memberIDs()) {
		m := lb.Members[id]
		if m.Pinned {
			continue
		}
		i := m.SpecIdx
		if i >= 0 && i < k && counts[i] <= desired[i] {
			continue
		}
		j := -1
		for x := 0; x < k; x++ {
			if counts[x] < desired[x] {
				j = x
				break
			}
		}
		if j < 0 {
			break
		}
		if i >= 0 && i < k {
			counts[i]--
		}
		counts[j]++
		m.SpecIdx, m.Spec = j, lb.cfg.Portfolio[j]
		outs = append(outs, Outbound{To: id, Msg: Message{Kind: MsgStrategy, Spec: m.Spec}})
	}
	if len(outs) > 0 {
		lb.Rebalances++
		lb.journal.AppendAt(lb.LastNow, obs.EvRebalance, LBFrom, map[string]string{
			"moved": strconv.Itoa(len(outs)),
		})
	}
	return outs
}
