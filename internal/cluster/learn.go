package cluster

import (
	"math"
	"sort"

	"cloud9/internal/engine"
	"cloud9/internal/obs"
	"cloud9/internal/search"
)

// The online sample-evaluate-refine loop (Cha et al.: learned
// heuristics drawn from a parameterized family beat hand-tuned ones).
//
// The parameterized family is dist-opt's weight vector
// (engine.DistWeights, exposed as dist-opt(w=a:b:c:d) in the spec
// grammar). The learner claims every dist-opt-family slot in the
// portfolio: the first is the incumbent, the rest become challengers
// running deterministic perturbations of the incumbent's vector. The
// bandit already scores every slot by normalized coverage yield per
// status, so evaluation is free — every LearnEvery-th reweight pass the
// learner compares each sufficiently-sampled challenger's mean against
// the incumbent's, adopts a winner into the incumbent slot, and deals
// fresh perturbations to the challenger slots (resetting their bandit
// arms: the old spec's record says nothing about the new one).
//
// Everything is deterministic: the perturbation stream is splitmix64
// from BalancerConfig.LearnSeed, the comparison reads only bandit
// counters, and retargeting rides the same MsgStrategy path as a
// portfolio rebalance — so the whole loop replays bit-for-bit in the
// lock-step sim and is property-testable (`-exp learn`).
//
// Replicated state (see lbState), hence the exported fields; the slot
// specs themselves live in lbState.Portfolio.
type specLearner struct {
	Slots []int // portfolio slots in the dist-opt family; Slots[0] = incumbent
	Vecs  map[int]engine.DistWeights
	Rng   uint64 // splitmix64 state
	Calls int    // reweight passes seen since the last decision
	// Adoptions counts incumbent replacements (experiment telemetry).
	Adoptions int
}

// Adoptions returns how many times the learner replaced the incumbent
// weight vector with a raced challenger's (0 without a learner) —
// experiment and stats telemetry.
func (lb *LoadBalancer) Adoptions() int {
	if lb.Learner == nil {
		return 0
	}
	return lb.Learner.Adoptions
}

// LearnedSpec returns the incumbent spec of the learner's dist-opt
// family slot ("" without an active learner) — the current winner of
// the sample-evaluate-refine loop.
func (lb *LoadBalancer) LearnedSpec() string {
	if lb.Learner == nil || len(lb.Learner.Slots) < 2 {
		return ""
	}
	return lb.Portfolio[lb.Learner.Slots[0]]
}

// learnMinPulls is how many bandit pulls a slot needs before the
// learner trusts its mean — comparing two-sample means adopts noise.
const learnMinPulls = 6

// learnMargin is the mean-reward edge a challenger needs over the
// incumbent to be adopted: strictly-better-by-noise must not thrash the
// incumbent slot (every adoption pays a fleet-wide strategy rebuild).
const learnMargin = 0.005

// newSpecLearner claims the portfolio's dist-opt-family slots and deals
// the initial challenger perturbations. With fewer than two family
// slots there is nothing to race; the learner stays inert.
func newSpecLearner(lb *LoadBalancer) *specLearner {
	l := &specLearner{Vecs: map[int]engine.DistWeights{}, Rng: uint64(lb.cfg.LearnSeed)*0x9e3779b97f4a7c15 + 1}
	for i, spec := range lb.Portfolio {
		if w, ok := distFamily(spec); ok {
			l.Slots = append(l.Slots, i)
			l.Vecs[i] = w
		}
	}
	if len(l.Slots) < 2 {
		return l
	}
	l.dealChallengers(lb)
	return l
}

// distFamily reports whether a spec is a member of the learnable
// dist-opt family, and the weight vector it encodes (the default md2u
// vector for bare "dist-opt").
func distFamily(spec string) (engine.DistWeights, bool) {
	s, err := search.Parse(spec)
	if err != nil || s.Name != "dist-opt" {
		return engine.DistWeights{}, false
	}
	if v, ok := s.KV("w"); ok {
		w, err := engine.ParseDistWeights(v)
		if err != nil {
			return engine.DistWeights{}, false
		}
		return w, true
	}
	return engine.DefaultDistWeights(), true
}

// unit draws from the deterministic perturbation stream (splitmix64),
// mapped to [0,1).
func (l *specLearner) unit() float64 {
	return float64(splitmix64(&l.Rng)>>11) / float64(1<<53)
}

// perturb samples a neighbor of w: each component is scaled by a
// geometric factor in [½,2], and zero components get a chance to switch
// on at a small magnitude (a multiplicative walk can never leave zero).
// Components are clamped to [0,8] — the features are normalized to
// (0,1], so weights beyond that just saturate the ranking.
func (l *specLearner) perturb(w engine.DistWeights) engine.DistWeights {
	f := func(v float64) float64 {
		u := l.unit()
		if v == 0 {
			if u < 0.25 {
				return 0.25 + u // switch on in [0.25, 0.5)
			}
			return 0
		}
		v *= math.Exp((2*u - 1) * math.Ln2) // ×[½,2)
		if v > 8 {
			v = 8
		}
		if v < 1e-3 {
			v = 0
		}
		return v
	}
	return engine.DistWeights{MD2U: f(w.MD2U), Depth: f(w.Depth), Faults: f(w.Faults), Yield: f(w.Yield)}
}

// setSlot installs a new spec into a portfolio slot: rewrites the slot,
// resets its bandit arm, and retargets every member currently assigned
// to it (the same idempotent MsgStrategy a rebalance sends; yield
// attribution for in-flight statuses reporting the old spec lapses
// until the swap lands, which under-counts rather than mis-credits).
func (l *specLearner) setSlot(lb *LoadBalancer, i int, spec string) []Outbound {
	if lb.Portfolio[i] == spec {
		return nil
	}
	lb.Portfolio[i] = spec
	lb.Bandit.reset(i)
	lb.WindowYield[i] = 0
	ids := make([]int, 0, len(lb.Members))
	for id, m := range lb.Members {
		if !m.Pinned && m.SpecIdx == i {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	var outs []Outbound
	for _, id := range ids {
		m := lb.Members[id]
		m.Spec = spec
		outs = append(outs, Outbound{To: id, Msg: Message{Kind: MsgStrategy, Spec: spec}})
	}
	return outs
}

// dealChallengers rewrites every non-incumbent family slot to a fresh
// perturbation of the incumbent vector.
func (l *specLearner) dealChallengers(lb *LoadBalancer) []Outbound {
	inc := l.Vecs[l.Slots[0]]
	var outs []Outbound
	for _, i := range l.Slots[1:] {
		w := l.perturb(inc)
		l.Vecs[i] = w
		outs = append(outs, l.setSlot(lb, i, "dist-opt(w="+w.String()+")")...)
	}
	return outs
}

// step runs on every periodic reweight pass; every LearnEvery-th pass
// it makes an adopt/keep decision. Called before rebalanceStrategies so
// retargeted slots settle in the same tick's allocation.
func (l *specLearner) step(lb *LoadBalancer) []Outbound {
	if len(l.Slots) < 2 {
		return nil
	}
	l.Calls++
	if l.Calls < lb.cfg.LearnEvery {
		return nil
	}
	l.Calls = 0
	b := lb.Bandit
	inc := l.Slots[0]
	if b.Pulls[inc] < learnMinPulls {
		return nil
	}
	// Best sufficiently-sampled challenger (index tie-break).
	best, bestMean := -1, b.mean(inc)+learnMargin
	for _, i := range l.Slots[1:] {
		if b.Pulls[i] < learnMinPulls {
			continue
		}
		if m := b.mean(i); m > bestMean {
			best, bestMean = i, m
		}
	}
	if best < 0 {
		return nil
	}
	// Adopt: the winner's vector becomes the incumbent, and every
	// challenger slot (the winner's included) gets a fresh perturbation
	// of it. The incumbent's arm resets too — it is now a new spec.
	l.Adoptions++
	l.Vecs[inc] = l.Vecs[best]
	lb.journal.AppendAt(lb.LastNow, obs.EvAdoption, LBFrom, map[string]string{
		"spec": "dist-opt(w=" + l.Vecs[best].String() + ")",
	})
	outs := l.setSlot(lb, inc, "dist-opt(w="+l.Vecs[best].String()+")")
	return append(outs, l.dealChallengers(lb)...)
}
