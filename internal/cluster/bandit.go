package cluster

import "math"

// slotBandit is the UCB1 bandit over portfolio slots that replaces the
// proportional yield-sharing of PR 3: each slot is an arm, each
// reweight window in which the slot had at least one worker is a pull,
// and the reward is the slot's normalized new-coverage yield over that
// window (its coverage rate per quantum). Allocation weights are the
// UCB1 scores (mean reward + exploration bonus), so a slot that stops
// producing decays toward the exploration floor instead of coasting on
// cumulative yield forever — the failure mode of 1+Σyield weighting,
// where an early lucky streak dominates the denominator for the rest of
// the run.
//
// UCB1 over Thompson sampling deliberately: the score is a pure
// function of (pulls, rewards, total), so the LB stays RNG-free and the
// lock-step sim reproduces allocations bit-for-bit — the same
// determinism bar the custody protocol meets.
//
// Replicated state (see lbState), hence the exported fields.
type slotBandit struct {
	Pulls  []uint64  // arm pull counts
	Reward []float64 // cumulative normalized reward per arm
	Total  uint64    // total pulls across arms
}

// newSlotBandit sizes the bandit for k portfolio slots.
func newSlotBandit(k int) *slotBandit {
	return &slotBandit{Pulls: make([]uint64, k), Reward: make([]float64, k)}
}

// banditRewardScale is the yield (newly covered lines per window) at
// which the normalized reward reaches ½. Rewards saturate smoothly into
// [0,1): added/(added+scale), so a single giant coverage burst cannot
// lock the posterior the way raw line counts would.
const banditRewardScale = 16

// observe records one pull of slot i with the given coverage yield.
// Zero-yield windows are pulls too — an arm that keeps producing
// nothing must see its mean fall, which is exactly what distinguishes a
// bandit from cumulative-yield weighting.
func (b *slotBandit) observe(i int, added uint64) {
	if i < 0 || i >= len(b.Pulls) {
		return
	}
	b.Pulls[i]++
	b.Total++
	b.Reward[i] += float64(added) / float64(added+banditRewardScale)
}

// reset clears one arm's history (the learner installs a new spec in
// the slot; the old spec's record says nothing about the new one).
func (b *slotBandit) reset(i int) {
	if i < 0 || i >= len(b.Pulls) {
		return
	}
	b.Total -= b.Pulls[i]
	b.Pulls[i] = 0
	b.Reward[i] = 0
}

// mean returns an arm's empirical mean reward (0 if unpulled).
func (b *slotBandit) mean(i int) float64 {
	if b.Pulls[i] == 0 {
		return 0
	}
	return b.Reward[i] / float64(b.Pulls[i])
}

// banditMinWeight keeps every arm's allocation weight strictly positive
// whatever its record: combined with the one-worker diversity floor in
// desiredAllocation, no slot can starve out of the rotation.
const banditMinWeight = 0.01

// weights returns the per-slot allocation weights: the UCB1 score
// mean + c·sqrt(2·ln(total)/pulls), clamped to banditMinWeight.
// Unpulled arms score 1 + c (above any possible pulled score early on)
// so every slot is tried before exploitation narrows — the classic
// "play each arm once" initialization, expressed as a weight.
func (b *slotBandit) weights(c float64) []float64 {
	w := make([]float64, len(b.Pulls))
	for i := range w {
		if b.Pulls[i] == 0 {
			w[i] = 1 + c
			continue
		}
		bonus := 0.0
		if b.Total > 1 {
			bonus = c * math.Sqrt(2*math.Log(float64(b.Total))/float64(b.Pulls[i]))
		}
		w[i] = b.mean(i) + bonus
		if w[i] < banditMinWeight {
			w[i] = banditMinWeight
		}
	}
	return w
}
