package cluster

// Tests of the decisions both fabrics take from the balancer instead of
// making themselves: how a BalancerConfig is defaulted, what a Hello is
// answered with, and what worker an answer describes.

import (
	"reflect"
	"testing"
	"time"

	"cloud9/internal/engine"
)

// TestBalancerConfigSurvivesEveryConstructor perturbs each BalancerConfig
// field in turn, Delta left zero, and requires the value to be the one
// the balancer runs with behind NewLBServer and behind RunSim. Both used
// to re-derive the config when Delta was zero, and NewLBServer's copy
// forgot MinTransfer among others. The loop
// is over the struct's fields, so a new one is covered by being declared.
func TestBalancerConfigSurvivesEveryConstructor(t *testing.T) {
	typ := reflect.TypeOf(BalancerConfig{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "Delta" {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			var cfg BalancerConfig
			v := reflect.ValueOf(&cfg).Elem().Field(i)
			switch v.Interface().(type) {
			case int, time.Duration:
				v.SetInt(7)
			case int64:
				v.SetInt(42)
			case float64:
				v.SetFloat(0.25)
			case bool:
				v.SetBool(true)
			case string: // DataPlane is the only one, and takes two values
				v.SetString(DataPlaneDepth)
			case []string: // Portfolio: entries must be buildable specs
				v.Set(reflect.ValueOf([]string{"dfs", "random-path"}))
			default:
				t.Fatalf("teach this test to perturb a %s", f.Type)
			}
			want := v.Interface()
			got := func(lb *LoadBalancer) any { return reflect.ValueOf(lb.Config()).Field(i).Interface() }

			lbs, err := NewLBServer("127.0.0.1:0", cfg, 64, 0)
			if err != nil {
				t.Fatal(err)
			}
			lbs.listener.Close()
			if g := got(lbs.lb); !reflect.DeepEqual(g, want) {
				t.Errorf("NewLBServer runs with %s = %v, configured %v", f.Name, g, want)
			}

			if f.Name == "Lease" {
				return // the sim's clock is its own: SimConfig.LeaseTicks sets the lease
			}
			res, err := RunSim(SimConfig{
				Workers: 1, Entry: "main", NewInterp: mkInterp(t, clusterTarget),
				Engine:   engine.Config{MaxStateSteps: 1_000_000},
				Balancer: cfg, MaxTicks: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if g := got(res.LB); !reflect.DeepEqual(g, want) {
				t.Errorf("RunSim's balancer runs with %s = %v, configured %v", f.Name, g, want)
			}
		})
	}
}

// TestAdmitDecisions walks one balancer through every answer a Hello can
// get: join, resume, refusal of a stale epoch and of an evicted member,
// readmission across a promotion — and the seed role and partition shape
// the ack carries under each data plane.
func TestAdmitDecisions(t *testing.T) {
	now := time.Unix(100, 0)
	lb := NewLoadBalancer(BalancerConfig{Portfolio: []string{"dfs", "random-path"}}, 64)

	first, outs := lb.Admit(Hello{ID: -1, Addr: "a:1"}, now)
	if first.ID != 0 || !first.Seed || first.Spec != "dfs" || first.DataPlane != "" {
		t.Fatalf("first join answered %+v, want id 0, seed, slot 0, default plane", first)
	}
	if len(outs) != 1 || outs[0].To != Broadcast || outs[0].Msg.Kind != MsgMembers {
		t.Fatalf("join owes the cluster %+v, want one membership broadcast", outs)
	}
	second, _ := lb.Admit(Hello{ID: -1, Addr: "b:1"}, now)
	if second.ID != 1 || second.Seed || second.Spec != "random-path" || second.Epoch <= first.Epoch {
		t.Fatalf("second join answered %+v, want id 1, no seed, slot 1, a later epoch", second)
	}

	// Resume: same id and epoch back, the lease renewed, and the view sent
	// to the resumer alone (it wakes an idle worker into re-reporting).
	later := now.Add(time.Second)
	resumed, outs := lb.Admit(Hello{ID: second.ID, Epoch: second.Epoch, Addr: "b:1"}, later)
	if resumed.ID != second.ID || resumed.Epoch != second.Epoch || resumed.Spec != second.Spec {
		t.Fatalf("resume answered %+v, want %+v again", resumed, second)
	}
	if len(outs) != 1 || outs[0].To != second.ID || outs[0].Msg.Kind != MsgMembers {
		t.Fatalf("resume owes %+v, want the membership view to the resumer", outs)
	}
	if !lb.Members[second.ID].LastSeen.Equal(later) {
		t.Fatal("resume did not renew the lease")
	}

	// A stale epoch, an id never issued, an evicted member: refused, and
	// nothing changes.
	before := lb.StateFingerprint()
	lb.Goodbye(first.ID, later)
	gone := lb.StateFingerprint()
	for name, h := range map[string]Hello{
		"stale epoch": {ID: second.ID, Epoch: second.Epoch - 1},
		"unknown id":  {ID: 9, Epoch: 3},
		"evicted":     {ID: first.ID, Epoch: first.Epoch},
	} {
		if ack, outs := lb.Admit(h, later); ack.ID != helloRefused || outs != nil {
			t.Fatalf("%s answered %+v %+v, want a bare refusal", name, ack, outs)
		}
	}
	if lb.StateFingerprint() != gone || gone == before {
		t.Fatal("a refusal changed replicated state")
	}

	// After a promotion, an unknown member whose epoch lies in the stride
	// window was admitted by the lost primary: readmitted as it is.
	lb.promote(later)
	lost := Hello{ID: 5, Epoch: lb.ReadmitLo + 1, Addr: "c:1"}
	back, outs := lb.Admit(lost, later)
	if back.ID != lost.ID || back.Epoch != lost.Epoch || lb.Readmits != 1 {
		t.Fatalf("readmit answered %+v (readmits=%d), want id and epoch kept", back, lb.Readmits)
	}
	if len(outs) == 0 || outs[0].To != Broadcast || outs[0].Msg.Members[lost.ID] != lost.Epoch {
		t.Fatalf("readmit owes %+v, want the new view broadcast", outs)
	}
	if fresh, _ := lb.Admit(Hello{ID: -1}, later); fresh.ID <= lost.ID {
		t.Fatalf("join after a readmit got id %d, inside the ids the lost primary may have issued", fresh.ID)
	}

	// Depth mode seeds everyone and ships the partition shape, defaults
	// resolved.
	depth := NewLoadBalancer(BalancerConfig{DataPlane: DataPlaneDepth, PartitionUnits: 5}, 64)
	depth.Admit(Hello{ID: -1}, now)
	ack, _ := depth.Admit(Hello{ID: -1}, now)
	if ack.ID != 1 || !ack.Seed || ack.DataPlane != DataPlaneDepth ||
		ack.PartitionDepth != DefaultPartitionDepth || ack.PartitionUnits != 5 {
		t.Fatalf("depth join answered %+v, want seed and a 4-deep 5-unit partition", ack)
	}
}

// TestHelloAckWorkerConfig: the ack supplies identity, seed, slot, plane
// and partition; the base keeps what is the caller's, a pinned strategy
// included.
func TestHelloAckWorkerConfig(t *testing.T) {
	ack := HelloAck{ID: 3, Epoch: 9, Seed: true, Spec: "dfs",
		DataPlane: DataPlaneDepth, PartitionDepth: 4, PartitionUnits: 16}
	base := WorkerConfig{Batch: 8, Entry: "main", Engine: engine.Config{MaxStateSteps: 5}}
	wc := ack.WorkerConfig(base)
	want := base
	want.ID, want.Epoch, want.Seed, want.StrategySpec, want.DataPlane = 3, 9, true, "dfs", DataPlaneDepth
	want.Engine.Partition = &engine.PartitionSpec{Depth: 4, Units: 16}
	if !reflect.DeepEqual(wc, want) {
		t.Fatalf("got %+v\nwant %+v", wc, want)
	}
	if base.Engine.Partition != nil {
		t.Fatal("the caller's base was written through")
	}

	base.StrategySpec, base.StrategyPinned = "random-path", true
	ack.DataPlane = ""
	wc = ack.WorkerConfig(base)
	if wc.StrategySpec != "random-path" || !wc.StrategyPinned || wc.Engine.Partition != nil {
		t.Fatalf("pinned p2p worker configured as %+v", wc)
	}
}
