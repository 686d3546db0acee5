package cluster

// Replication-property tests: the LoadBalancer is a deterministic state
// machine over its inputs, so replaying them through a fresh standby
// must reproduce the primary's replicated state field for field
// (StateFingerprint is the oracle, and
// TestFingerprintCoversReplicatedState checks the oracle), and promotion is a pure control
// transition — it must not touch the per-slot yield ledger.

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"cloud9/internal/coverage"
)

// recordReplication turns on the balancer's input logging and returns
// the slice every logged entry is appended to — the primary retains none
// itself, so the stream's consumer is where history lives (as in RunSim).
func recordReplication(lb *LoadBalancer) *[]RepEntry {
	var all []RepEntry
	lb.StartReplication(func(e RepEntry) { all = append(all, e) })
	return &all
}

// replay applies entries to a fresh replica built from the primary's
// config.
func replay(t testing.TB, lb *LoadBalancer, covLen int, entries []RepEntry) *Replica {
	t.Helper()
	rep := NewReplica(lb.Config(), covLen)
	for _, e := range entries {
		if err := rep.Apply(e); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	return rep
}

// TestReplicaReplayFingerprint drives a primary through a scripted mix
// of every replicated entry point — joins, covered and plain statuses,
// custody ticks, balance rounds, a goodbye with a
// live frontier, lease expiry — and requires a standby replaying the
// entries to land on an identical state fingerprint. The standby is built
// from the primary's Config(), defaults already resolved, so defaulting
// must be idempotent: under the zero-valued config every default there
// is gets applied a second time.
func TestReplicaReplayFingerprint(t *testing.T) {
	for _, cfg := range []BalancerConfig{scriptedConfigs()[0], {}} {
		lb, all, covLen := driveScriptedPrimary(t, cfg)
		rep := replay(t, lb, covLen, all)
		want, got := lb.StateFingerprint(), rep.LB().StateFingerprint()
		if want != got {
			t.Fatalf("replayed standby diverges from primary:\n--- primary ---\n%s\n--- standby ---\n%s", want, got)
		}
		if rep.LastSeq() != lb.RepSeq || uint64(len(all)) != lb.RepSeq {
			t.Fatalf("standby applied %d of %d streamed entries, primary logged %d", rep.LastSeq(), len(all), lb.RepSeq)
		}
		if !reflect.DeepEqual(rep.LB().Config(), lb.Config()) {
			t.Fatalf("standby built from %+v runs with %+v", lb.Config(), rep.LB().Config())
		}
	}
}

// TestQuickReplicaReplayFingerprint is the randomized version: an
// arbitrary byte string is interpreted as an op sequence over the
// balancer's replicated entry points; for every such sequence the
// replayed standby must fingerprint identically to the primary.
func TestQuickReplicaReplayFingerprint(t *testing.T) {
	const covLen = 4095
	f := func(ops []byte) bool {
		cfg := DefaultBalancerConfig()
		cfg.Portfolio = []string{"dfs", "random"}
		lb := NewLoadBalancer(cfg, covLen)
		all := recordReplication(lb)
		now := time.Unix(10, 0)
		var ms []*Member
		for i, op := range ops {
			now = now.Add(time.Duration(op%5+1) * 97 * time.Millisecond)
			switch op % 7 {
			case 0:
				m, _ := lb.Join("", now)
				ms = append(ms, m)
			case 1, 2: // status weighted heavier: it is the rich entry point
				if len(ms) == 0 {
					continue
				}
				m := ms[int(op/7)%len(ms)]
				if lb.Members[m.ID] == nil {
					continue
				}
				st := Status{
					Worker: m.ID, Epoch: m.Epoch, Spec: m.Spec,
					Queue: int(op) % 9, Paths: uint64(i),
					Frontier: BuildJobTree([][]uint8{{op % 2}, {1, op % 3}}),
					CovWords: covStatus(int(op)*13%3800, int(op)%60+1),
				}
				lb.Update(st, now)
			case 3:
				lb.Tick(now)
			case 4:
				lb.Balance()
			case 5:
				lb.ExpireLeases(now)
			case 6:
				if len(ms) == 0 {
					continue
				}
				m := ms[int(op/7)%len(ms)]
				if lb.Members[m.ID] != nil {
					lb.Goodbye(m.ID, now)
				}
			}
		}
		rep := NewReplica(lb.Config(), covLen)
		for _, e := range *all {
			if err := rep.Apply(e); err != nil {
				t.Logf("replay: %v", err)
				return false
			}
		}
		return rep.LB().StateFingerprint() == lb.StateFingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPromoteLeavesSlotYieldUntouched reports fresh coverage from one
// slot's runners and promotes the replicated standby: the promotion must
// neither credit nor reset a slot — the yield ledger stays exactly as
// replicated, and the tick after it adds nothing.
func TestPromoteLeavesSlotYieldUntouched(t *testing.T) {
	cfg := DefaultBalancerConfig()
	cfg.Portfolio = []string{"dfs", "random"}
	const covLen = 4095
	lb := NewLoadBalancer(cfg, covLen)
	all := recordReplication(lb)

	now := time.Unix(10, 0)
	ms := joinN(t, lb, 4)
	for r := 0; r < 3; r++ {
		now = now.Add(300 * time.Millisecond)
		for i, m := range ms {
			st := Status{Worker: m.ID, Epoch: m.Epoch, Spec: m.Spec, Queue: 2,
				Frontier: BuildJobTree(nil)}
			if m.SpecIdx == 1 {
				st.CovWords = covStatus(r*300+i*70, 70)
			}
			if _, ok := lb.Update(st, now); !ok {
				t.Fatalf("status for member %d rejected", m.ID)
			}
		}
		lb.Tick(now)
	}
	if lb.SpecYield[0] != 0 || lb.SpecYield[1] == 0 {
		t.Fatalf("slot yields %v, want all of it on slot 1", lb.SpecYield)
	}

	rep := replay(t, lb, covLen, *all)
	if got := rep.LB().StateFingerprint(); got != lb.StateFingerprint() {
		t.Fatalf("standby diverged before promotion:\n%s", got)
	}
	before := fmt.Sprint(rep.LB().SpecYield)

	promoted := rep.Promote(now.Add(time.Second))
	promoted.Tick(now.Add(2 * time.Second))
	if after := fmt.Sprint(promoted.SpecYield); after != before {
		t.Fatalf("promotion touched the slot yields: before %s, after %s", before, after)
	}
	if promoted.Term != 2 || promoted.Promotions != 1 {
		t.Fatalf("term=%d promotions=%d, want 2/1", promoted.Term, promoted.Promotions)
	}
	if !promoted.ResyncPending {
		t.Fatal("promotion with live members must open a resync window")
	}
}

// populate makes every container reachable from v non-empty — nil
// pointers allocated, empty maps and slices given one element — so that a
// walk over v passes through every field of every type v can hold. A
// type already being populated further up (JobTree inside JobTree, Status
// inside ReseatAck inside Status) is left empty the second time.
func populate(v reflect.Value, onPath map[reflect.Type]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			if onPath[v.Type().Elem()] {
				return
			}
			v.Set(reflect.New(v.Type().Elem()))
		}
		populate(v.Elem(), onPath)
	case reflect.Struct:
		if onPath[v.Type()] {
			return
		}
		onPath[v.Type()] = true
		defer delete(onPath, v.Type())
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				populate(v.Field(i), onPath)
			}
		}
	case reflect.Map:
		if v.Len() == 0 {
			elem := reflect.New(v.Type().Elem()).Elem()
			populate(elem, onPath)
			if v.IsNil() {
				v.Set(reflect.MakeMap(v.Type()))
			}
			v.SetMapIndex(reflect.Zero(v.Type().Key()), elem)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			elem := reflect.New(v.Type().Elem()).Elem()
			populate(elem, onPath)
			v.Set(reflect.Append(v, elem))
		}
	}
}

// eachLeaf calls visit for every scalar reachable from v (which must be
// settable), naming each by its path from v. Map values are
// not addressable, so they are walked as copies; store writes the copy —
// and every copy above it — back, and visit calls it after each change
// it makes to the leaf.
func eachLeaf(t *testing.T, path string, v reflect.Value, store func(), visit func(path string, leaf reflect.Value, store func())) {
	switch v.Interface().(type) {
	case time.Time, *coverage.BitVec:
		visit(path, v, store)
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			eachLeaf(t, path, v.Elem(), store, visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				t.Errorf("%s.%s is unexported: neither the snapshot nor the fingerprint can see it", path, f.Name)
				continue
			}
			eachLeaf(t, path+"."+f.Name, v.Field(i), store, visit)
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			elem := reflect.New(v.Type().Elem()).Elem()
			elem.Set(v.MapIndex(k))
			eachLeaf(t, fmt.Sprintf("%s[%v]", path, k), elem, func() { v.SetMapIndex(k, elem); store() }, visit)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachLeaf(t, fmt.Sprintf("%s[%d]", path, i), v.Index(i), store, visit)
		}
	default:
		visit(path, v, store)
	}
}

// perturb changes a leaf to a different value of its type.
func perturb(t *testing.T, leaf reflect.Value) {
	switch x := leaf.Interface().(type) {
	case time.Time:
		leaf.Set(reflect.ValueOf(x.Add(time.Second)))
		return
	case *coverage.BitVec:
		flipped := x.Clone()
		if !flipped.Set(0) {
			flipped = coverage.New(x.Len() - 1)
		}
		leaf.Set(reflect.ValueOf(flipped))
		return
	}
	switch leaf.Kind() {
	case reflect.Bool:
		leaf.SetBool(!leaf.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		leaf.SetInt(leaf.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		leaf.SetUint(leaf.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		leaf.SetFloat(leaf.Float() + 0.5)
	case reflect.String:
		leaf.SetString(leaf.String() + "x")
	default:
		t.Fatalf("lbState holds a %s leaf this test cannot perturb; teach it, and check the snapshot encoding carries the kind", leaf.Kind())
	}
}

// TestFingerprintCoversReplicatedState checks the oracle every
// replication test leans on: each leaf value of lbState — every field of
// every type the state can hold — is perturbed in turn, and the
// fingerprint must change each time. A field the fingerprint does not
// read is a field whose divergence no property test can see; the
// hand-written fingerprint this one replaced missed five (four of them
// still exist and are named below).
func TestFingerprintCoversReplicatedState(t *testing.T) {
	lb := NewLoadBalancer(DefaultBalancerConfig(), 63)
	state := reflect.ValueOf(&lb.lbState).Elem()
	populate(state, map[reflect.Type]bool{})
	base := lb.StateFingerprint()

	visited := map[string]bool{}
	eachLeaf(t, "", state, func() {}, func(path string, leaf reflect.Value, store func()) {
		visited[path] = true
		old := reflect.New(leaf.Type()).Elem()
		old.Set(leaf)
		perturb(t, leaf)
		store()
		if lb.StateFingerprint() == base {
			t.Errorf("fingerprint does not see %s", path)
		}
		leaf.Set(old)
		store()
	})
	if got := lb.StateFingerprint(); got != base {
		t.Fatalf("walk did not restore the state:\n--- before ---\n%s\n--- after ---\n%s", base, got)
	}
	for _, path := range []string{
		".Members[0].Last.UsefulSteps", ".Members[0].Last.ReplaySteps",
		".LastNow", ".Reseats[0].Rec.Paths",
	} {
		if !visited[path] {
			t.Errorf("walk never reached %s (%d leaves visited)", path, len(visited))
		}
	}
}
