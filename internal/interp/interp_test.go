package interp

import (
	"sort"
	"strings"
	"testing"

	"cloud9/internal/cc"
	"cloud9/internal/cvm"
	"cloud9/internal/expr"
	"cloud9/internal/state"
)

// testExterns declares the engine intrinsics used by test programs.
func testExterns() map[string]*cc.Signature {
	long := cc.TypeLong
	i := cc.TypeInt
	pc := cc.Ptr(cc.TypeChar)
	return map[string]*cc.Signature{
		"cloud9_make_symbolic":    {Ret: i, Params: []*cc.Type{pc, long, pc}},
		"cloud9_assume":           {Ret: i, Params: []*cc.Type{i}},
		"cloud9_make_shared":      {Ret: i, Params: []*cc.Type{pc}},
		"cloud9_thread_create":    {Ret: i, Params: []*cc.Type{pc, long}},
		"cloud9_thread_terminate": {Ret: cc.TypeVoid, Params: nil},
		"cloud9_process_fork":     {Ret: i, Params: nil},
		"cloud9_get_pid":          {Ret: i, Params: nil},
		"cloud9_get_tid":          {Ret: i, Params: nil},
		"cloud9_thread_preempt":   {Ret: i, Params: nil},
		"cloud9_thread_sleep":     {Ret: i, Params: []*cc.Type{long}},
		"cloud9_thread_notify":    {Ret: i, Params: []*cc.Type{long, i}},
		"cloud9_get_wlist":        {Ret: long, Params: nil},
		"cloud9_set_scheduler":    {Ret: i, Params: []*cc.Type{i}},
		"cloud9_set_max_heap":     {Ret: i, Params: []*cc.Type{long}},
		"cloud9_fi_enable":        {Ret: i, Params: nil},
		"cloud9_fi_disable":       {Ret: i, Params: nil},
		"malloc":                  {Ret: pc, Params: []*cc.Type{long}},
		"free":                    {Ret: cc.TypeVoid, Params: []*cc.Type{pc}},
		"exit":                    {Ret: cc.TypeVoid, Params: []*cc.Type{i}},
		"abort":                   {Ret: cc.TypeVoid, Params: nil},
		"__c9_out_byte":           {Ret: i, Params: []*cc.Type{i}},
		"__c9_thread_alive":       {Ret: i, Params: []*cc.Type{i}},
		"__c9_join_wlist":         {Ret: long, Params: []*cc.Type{i}},
	}
}

// exploreAll exhaustively explores every path of src's main(), returning
// the terminated states.
func exploreAll(t *testing.T, src string) (*Interp, []*state.S) {
	t.Helper()
	prog, err := cc.Compile("test.c", src, cc.Options{Externs: testExterns()})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	in := New(prog)
	root, err := in.InitialState("main")
	if err != nil {
		t.Fatal(err)
	}
	root.MaxSteps = 2_000_000
	work := []*state.S{root}
	var done []*state.S
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
		kids, err := in.Advance(s)
		if err != nil {
			t.Fatalf("advance: %v", err)
		}
		if kids == nil {
			done = append(done, s)
			continue
		}
		work = append(work, kids...)
		if len(done)+len(work) > 100000 {
			t.Fatal("path explosion in test")
		}
	}
	return in, done
}

func outputs(states []*state.S) []string {
	var out []string
	for _, s := range states {
		out = append(out, string(Output(s).Bytes))
	}
	sort.Strings(out)
	return out
}

func TestConcreteArithmetic(t *testing.T) {
	_, done := exploreAll(t, `
		int add(int a, int b) { return a + b; }
		int main() {
			int x = add(40, 2);
			__c9_out_byte('0' + x / 10);
			__c9_out_byte('0' + x % 10);
			return 0;
		}`)
	if len(done) != 1 {
		t.Fatalf("want 1 path, got %d", len(done))
	}
	if got := string(Output(done[0]).Bytes); got != "42" {
		t.Fatalf("output = %q, want 42", got)
	}
	if done[0].Term != state.TermExit {
		t.Fatalf("termination = %v (%s)", done[0].Term, done[0].TermMsg)
	}
}

func TestSymbolicBranchForksTwoPaths(t *testing.T) {
	in, done := exploreAll(t, `
		int main() {
			char x;
			cloud9_make_symbolic(&x, 1, "x");
			if (x < 10) __c9_out_byte('A');
			else __c9_out_byte('B');
			return 0;
		}`)
	if len(done) != 2 {
		t.Fatalf("want 2 paths, got %d", len(done))
	}
	got := outputs(done)
	if got[0] != "A" || got[1] != "B" {
		t.Fatalf("outputs = %v", got)
	}
	// Each path's constraints must be solvable and classify x correctly.
	for _, s := range done {
		m, sat, err := in.Solver.Solve(s.Constraints)
		if err != nil || !sat {
			t.Fatalf("path should be satisfiable: %v", err)
		}
		isA := string(Output(s).Bytes) == "A"
		x, _ := m.Get(0)
		if isA != (x < 10) {
			t.Errorf("model x=%d inconsistent with path %q", x, Output(s).Bytes)
		}
	}
}

func TestNestedBranchesPathCount(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			char buf[3];
			cloud9_make_symbolic(buf, 3, "buf");
			int n = 0;
			if (buf[0] == 'a') n++;
			if (buf[1] == 'b') n++;
			if (buf[2] == 'c') n++;
			__c9_out_byte('0' + n);
			return 0;
		}`)
	if len(done) != 8 {
		t.Fatalf("3 independent branches should give 8 paths, got %d", len(done))
	}
}

func TestSymbolicLoopBounded(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			char n;
			cloud9_make_symbolic(&n, 1, "n");
			cloud9_assume(n <= 4);
			int i;
			int total = 0;
			for (i = 0; i < n; i++) total += 2;
			__c9_out_byte('0' + total / 2);
			return 0;
		}`)
	// n in [0,4] -> 5 paths.
	if len(done) != 5 {
		t.Fatalf("want 5 paths, got %d", len(done))
	}
	got := outputs(done)
	want := []string{"0", "1", "2", "3", "4"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outputs = %v", got)
		}
	}
}

func TestAssertForksErrorPath(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			char x;
			cloud9_make_symbolic(&x, 1, "x");
			if (x > 100) {
				abort();
			}
			return 0;
		}`)
	var errs, oks int
	for _, s := range done {
		if s.Term == state.TermError {
			errs++
			if !strings.Contains(s.TermMsg, "abort") {
				t.Errorf("error message %q", s.TermMsg)
			}
		} else {
			oks++
		}
	}
	if errs != 1 || oks != 1 {
		t.Fatalf("want 1 error + 1 ok path, got %d + %d", errs, oks)
	}
}

func TestOutOfBoundsDetected(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			char buf[4];
			char *p = buf;
			int i;
			for (i = 0; i <= 4; i++) p[i] = 'x'; // off-by-one
			return 0;
		}`)
	if len(done) != 1 || done[0].Term != state.TermError {
		t.Fatalf("expected a memory-error path, got %+v", done[0].Term)
	}
	if !strings.Contains(done[0].TermMsg, "out-of-bounds") {
		t.Fatalf("message %q", done[0].TermMsg)
	}
}

func TestDivisionByZeroFork(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			char d;
			cloud9_make_symbolic(&d, 1, "d");
			int q = 100 / d;
			__c9_out_byte('K');
			return 0;
		}`)
	var errs, oks int
	for _, s := range done {
		if s.Term == state.TermError {
			errs++
			if !strings.Contains(s.TermMsg, "division by zero") {
				t.Errorf("msg %q", s.TermMsg)
			}
		} else {
			oks++
		}
	}
	if errs != 1 || oks != 1 {
		t.Fatalf("want 1 div-zero error + 1 ok, got %d + %d", errs, oks)
	}
}

func TestGlobalsInitialized(t *testing.T) {
	_, done := exploreAll(t, `
		int counter = 7;
		char msg[6] = "hello";
		int main() {
			counter = counter + 1;
			__c9_out_byte('0' + counter);
			__c9_out_byte(msg[1]);
			return 0;
		}`)
	if got := string(Output(done[0]).Bytes); got != "8e" {
		t.Fatalf("output = %q", got)
	}
}

func TestMallocFree(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			char *p = malloc(16);
			p[0] = 'm';
			p[15] = 'z';
			__c9_out_byte(p[0]);
			free(p);
			return 0;
		}`)
	if got := string(Output(done[0]).Bytes); got != "m" {
		t.Fatalf("output = %q", got)
	}
	if done[0].Term != state.TermExit {
		t.Fatalf("term %v: %s", done[0].Term, done[0].TermMsg)
	}
}

func TestUseAfterFreeDetected(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			char *p = malloc(8);
			free(p);
			p[0] = 'x';
			return 0;
		}`)
	if done[0].Term != state.TermError {
		t.Fatal("use-after-free should be a memory error")
	}
}

func TestThreadsAndWaitLists(t *testing.T) {
	_, done := exploreAll(t, `
		long wl;
		int ready = 0;
		void worker(long arg) {
			ready = 1;
			cloud9_thread_notify(wl, 1);
			__c9_out_byte('W');
		}
		int main() {
			wl = cloud9_get_wlist();
			cloud9_thread_create("worker", 0);
			while (!ready) cloud9_thread_sleep(wl);
			__c9_out_byte('M');
			return 0;
		}`)
	if len(done) != 1 {
		t.Fatalf("want 1 path, got %d", len(done))
	}
	out := string(Output(done[0]).Bytes)
	if out != "WM" && out != "MW" {
		t.Fatalf("output = %q", out)
	}
	if done[0].Term != state.TermExit {
		t.Fatalf("term %v: %s", done[0].Term, done[0].TermMsg)
	}
}

func TestDeadlockDetected(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			long wl = cloud9_get_wlist();
			cloud9_thread_sleep(wl); // nobody will notify
			return 0;
		}`)
	if len(done) != 1 || done[0].Term != state.TermHang {
		t.Fatalf("expected hang, got %v (%s)", done[0].Term, done[0].TermMsg)
	}
	if !strings.Contains(done[0].TermMsg, "deadlock") {
		t.Fatalf("msg %q", done[0].TermMsg)
	}
}

func TestInstructionLimitHang(t *testing.T) {
	prog, err := cc.Compile("loop.c", `
		int main() { while (1) {} return 0; }`, cc.Options{Externs: testExterns()})
	if err != nil {
		t.Fatal(err)
	}
	in := New(prog)
	s, err := in.InitialState("main")
	if err != nil {
		t.Fatal(err)
	}
	s.MaxSteps = 10000
	kids, err := in.Advance(s)
	if err != nil || kids != nil {
		t.Fatalf("unexpected fork/err: %v", err)
	}
	if s.Term != state.TermHang {
		t.Fatalf("want hang, got %v", s.Term)
	}
}

func TestProcessFork(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			int pid = cloud9_process_fork();
			if (pid == 0) {
				__c9_out_byte('C');
			} else {
				__c9_out_byte('P');
			}
			return 0;
		}`)
	if len(done) != 1 {
		t.Fatalf("fork is not a state fork; want 1 path, got %d", len(done))
	}
	out := string(Output(done[0]).Bytes)
	if !(strings.Contains(out, "C") && strings.Contains(out, "P")) {
		t.Fatalf("both processes should run: output %q", out)
	}
}

func TestForkIsolatesMemory(t *testing.T) {
	_, done := exploreAll(t, `
		int v = 1;
		int main() {
			int pid = cloud9_process_fork();
			if (pid == 0) {
				v = 42; // child's copy only
				__c9_out_byte('a' + v % 26);
			} else {
				__c9_out_byte(v == 1 ? 'Y' : 'N');
			}
			return 0;
		}`)
	out := string(Output(done[0]).Bytes)
	if !strings.Contains(out, "Y") {
		t.Fatalf("parent saw child's write: %q", out)
	}
}

func TestMakeSharedVisibleAcrossFork(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			int *shared = (int*)malloc(4);
			cloud9_make_shared((char*)shared);
			*shared = 5;
			int pid = cloud9_process_fork();
			if (pid == 0) {
				*shared = 9;
			} else {
				while (*shared != 9) cloud9_thread_preempt();
				__c9_out_byte('S');
			}
			return 0;
		}`)
	if len(done) != 1 {
		t.Fatalf("want 1 path, got %d", len(done))
	}
	if out := string(Output(done[0]).Bytes); out != "S" {
		t.Fatalf("shared write not observed: %q (%v: %s)", out, done[0].Term, done[0].TermMsg)
	}
}

func TestSchedulerForkExploresInterleavings(t *testing.T) {
	_, done := exploreAll(t, `
		void worker(long arg) { __c9_out_byte('B'); }
		int main() {
			cloud9_set_scheduler(1); // fork on scheduling decisions
			int tid = cloud9_thread_create("worker", 0);
			cloud9_thread_preempt();
			cloud9_set_scheduler(0); // back to round-robin for the join
			__c9_out_byte('A');
			while (__c9_thread_alive(tid)) cloud9_thread_preempt();
			return 0;
		}`)
	// Both orders must be explored.
	got := map[string]bool{}
	for _, s := range done {
		got[string(Output(s).Bytes)] = true
	}
	if !got["AB"] || !got["BA"] {
		t.Fatalf("interleavings = %v, want AB and BA", got)
	}
}

func TestSwitchStatement(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			char c;
			cloud9_make_symbolic(&c, 1, "c");
			switch (c) {
			case 'g': __c9_out_byte('1'); break;
			case 's': __c9_out_byte('2'); break;
			case 'd': __c9_out_byte('3'); // fallthrough
			case 'q': __c9_out_byte('4'); break;
			default: __c9_out_byte('0');
			}
			return 0;
		}`)
	got := outputs(done)
	want := []string{"0", "1", "2", "34", "4"}
	if len(got) != len(want) {
		t.Fatalf("paths %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("paths %v, want %v", got, want)
		}
	}
}

func TestShortCircuitEvaluation(t *testing.T) {
	_, done := exploreAll(t, `
		int touched = 0;
		int touch() { touched++; return 1; }
		int main() {
			if (0 && touch()) {}
			if (1 || touch()) {}
			__c9_out_byte('0' + touched);
			return 0;
		}`)
	if got := string(Output(done[0]).Bytes); got != "0" {
		t.Fatalf("short circuit failed: touched=%q", got)
	}
}

func TestPointerArithmetic(t *testing.T) {
	_, done := exploreAll(t, `
		int arr[4];
		int main() {
			int *p = arr;
			*(p + 2) = 7;
			int *q = &arr[2];
			__c9_out_byte('0' + *q);
			__c9_out_byte('0' + (int)(q - p));
			return 0;
		}`)
	if got := string(Output(done[0]).Bytes); got != "72" {
		t.Fatalf("output %q", got)
	}
}

func TestRecursion(t *testing.T) {
	_, done := exploreAll(t, `
		int fib(int n) {
			if (n < 2) return n;
			return fib(n-1) + fib(n-2);
		}
		int main() {
			int f = fib(10);
			__c9_out_byte('0' + f / 10 % 10);
			__c9_out_byte('0' + f % 10);
			return 0;
		}`)
	if got := string(Output(done[0]).Bytes); got != "55" {
		t.Fatalf("fib(10) output %q, want 55", got)
	}
}

func TestPathChoicesRecorded(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			char x;
			cloud9_make_symbolic(&x, 1, "x");
			if (x < 50) { __c9_out_byte('L'); }
			else { __c9_out_byte('H'); }
			return 0;
		}`)
	for _, s := range done {
		choices := state.PathChoices(s.Path)
		if len(choices) != 1 {
			t.Fatalf("path length %d, want 1", len(choices))
		}
		isLow := string(Output(s).Bytes) == "L"
		// Choice 1 = then-branch (x < 50).
		if isLow != (choices[0] == 1) {
			t.Errorf("choice %d inconsistent with output %q", choices[0], Output(s).Bytes)
		}
	}
}

func TestTernaryAndCompoundAssign(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			int a = 5;
			a += 3;
			a <<= 1;
			int b = a > 10 ? 1 : 0;
			__c9_out_byte('0' + b);
			__c9_out_byte('a' + a % 26);
			return 0;
		}`)
	// a = (5+3)<<1 = 16; b = 1; 16%26=16 -> 'q'
	if got := string(Output(done[0]).Bytes); got != "1q" {
		t.Fatalf("output %q", got)
	}
}

func TestSymbolicIndexOOBForked(t *testing.T) {
	// A symbolic index that can be both in and out of bounds must fork
	// an error path (bounds-checked pointer resolution), not silently
	// concretize to an in-bounds value.
	_, done := exploreAll(t, `
		int main() {
			char buf[4];
			char idx;
			cloud9_make_symbolic(&idx, 1, "idx");
			cloud9_assume(idx <= 4); // 4 is one past the end
			char v = buf[idx];
			__c9_out_byte('K');
			return 0;
		}`)
	var errs, oks int
	for _, s := range done {
		if s.Term == state.TermError {
			errs++
			if !strings.Contains(s.TermMsg, "out-of-bounds") {
				t.Errorf("unexpected error %q", s.TermMsg)
			}
		} else {
			oks++
		}
	}
	if errs != 1 || oks != 1 {
		t.Fatalf("want 1 OOB + 1 ok path, got %d + %d", errs, oks)
	}
}

func TestSymbolicIndexAlwaysInBounds(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			char buf[8];
			char idx;
			cloud9_make_symbolic(&idx, 1, "idx");
			cloud9_assume(idx < 8);
			buf[idx] = 1;
			__c9_out_byte('K');
			return 0;
		}`)
	if len(done) != 1 || done[0].Term != state.TermExit {
		t.Fatalf("fully-bounded symbolic index should not fork errors: %d paths, %v",
			len(done), done[0].Term)
	}
}

// A symbolic access that is in bounds on every path costs one solver
// query: the model that locates its object also gives the address it is
// pinned to and proceeds at.
func TestSymbolicInBoundsLoadIsOneQuery(t *testing.T) {
	queries := func(load string) uint64 {
		in, done := exploreAll(t, `
			int main() {
				char buf[8];
				char idx;
				cloud9_make_symbolic(&idx, 1, "idx");
				cloud9_assume(idx < 8);
				char v = 0;
				`+load+`
				__c9_out_byte('K' + v);
				return 0;
			}`)
		if len(done) != 1 || done[0].Term != state.TermExit {
			t.Fatalf("%q: want one exiting path, got %d", load, len(done))
		}
		return in.Solver.Stats.Snapshot().Queries
	}
	without, with := queries(""), queries("v = buf[idx];")
	if with != without+1 {
		t.Fatalf("a symbolic in-bounds load cost %d solver queries, want 1", with-without)
	}
}

func TestSymbolicWriteOOBDetected(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			char buf[4];
			char idx;
			cloud9_make_symbolic(&idx, 1, "idx");
			buf[idx] = 7; // idx unconstrained: 0..255
			return 0;
		}`)
	errs := 0
	for _, s := range done {
		if s.Term == state.TermError {
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("unconstrained symbolic write must expose an OOB path")
	}
}

// A promoted local reads what the zeroed object it replaced read: 0
// before its first store, and across the iterations of a loop that
// declares it, whatever the last one left.
func TestPromotedLocalReadBeforeWritten(t *testing.T) {
	_, done := exploreAll(t, `
		int main() {
			int x;
			long l;
			char c;
			__c9_out_byte('0' + x + l + c);
			for (int i = 0; i < 3; i++) {
				int seen;
				__c9_out_byte('0' + seen);
				seen = seen + i + 1;
			}
			return 0;
		}`)
	if len(done) != 1 || done[0].Term != state.TermExit {
		t.Fatalf("want one clean path, got %d: %v", len(done), done[0].TermMsg)
	}
	if got := string(Output(done[0]).Bytes); got != "0013" {
		t.Fatalf("output = %q, want 0013", got)
	}
}

// A value of another width reaching a promoted slot is the engine's
// error, not a silently re-sized store.
func TestSlotStoreWidthMismatchIsAnEngineError(t *testing.T) {
	prog := cvm.NewProgram("t")
	m := cvm.NewFuncBuilder("main", 0)
	x := m.Alloca(4)
	m.Store(m.FrameAddr(x), m.Const(1, expr.W64), expr.W32)
	m.Ret(m.Load(m.FrameAddr(x), expr.W32))
	prog.Funcs["main"] = m.Func()
	prog.PromoteSlots()
	if err := prog.Validate(nil); err != nil {
		t.Fatal(err)
	}
	in := New(prog)
	s, err := in.InitialState("main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Advance(s); err == nil || !strings.Contains(err.Error(), "64-bit value into a promoted 32-bit slot") {
		t.Fatalf("Advance: err = %v, want the width mismatch", err)
	}
}

// callLoop returns a function that runs one iteration of
// `for (;;) y = id(x);` on a fresh interpreter, id spilling its
// parameter to a promoted slot as every compiled callee does: the call,
// id's four instructions, the branch back.
func callLoop(t testing.TB) func() {
	prog := cvm.NewProgram("t")
	id := cvm.NewFuncBuilder("id", 1)
	x0 := id.Alloca(4)
	id.Store(id.FrameAddr(x0), 0, expr.W32)
	id.Ret(id.Load(id.FrameAddr(x0), expr.W32))
	prog.Funcs["id"] = id.Func()
	m := cvm.NewFuncBuilder("main", 0)
	x := m.Const(7, expr.W32)
	loop := m.NewBlock()
	m.Br(loop)
	m.SetBlock(loop)
	m.Call("id", x)
	m.Br(loop)
	prog.Funcs["main"] = m.Func()
	prog.PromoteSlots()
	prog.Link()
	if err := prog.Validate(nil); err != nil {
		t.Fatal(err)
	}
	if id.Func().NumPromoted() != 1 {
		t.Fatalf("id's parameter slot was not promoted:\n%s", id.Func().Disasm())
	}
	in := New(prog)
	s, err := in.InitialState("main")
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		th := s.CurThread()
		f := th.Top()
		instr := &f.Fn.Blocks[f.Block].Instrs[f.PC]
		f.PC++
		if kids, err := in.exec(s, th, f, instr); kids != nil || err != nil {
			t.Fatalf("%v: kids=%v err=%v", instr.Op, kids, err)
		}
	}
	step() // const
	step() // br
	return func() {
		for i := 0; i < 7; i++ {
			step()
		}
	}
}

// Once a frame has been popped, a call draws its frame and registers
// from the lineage's free list, a direct call builds no argument slice
// and a promoted slot is no object: calling and returning allocates
// nothing.
func TestWarmCallReturnDoesNotAllocateFrames(t *testing.T) {
	iter := callLoop(t)
	iter()
	if n := testing.AllocsPerRun(100, iter); n != 0 {
		t.Fatalf("a warm call and return allocates %.0f times, want 0", n)
	}
}

func BenchmarkCallReturn(b *testing.B) {
	iter := callLoop(b)
	iter() // the first call builds the frame every later one reuses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter()
	}
}

// The builtins that look a thread or process up by an id the guest
// passes answer "not alive" or an unknown-id error for any id that names
// none, huge and all-ones ones included, and never index past a table.
func TestGuestIDsOutOfRange(t *testing.T) {
	prog := cvm.NewProgram("t")
	m := cvm.NewFuncBuilder("main", 0)
	m.Ret(m.Const(0, expr.W32))
	prog.Funcs["main"] = m.Func()
	if err := prog.Validate(nil); err != nil {
		t.Fatal(err)
	}
	in := New(prog)
	s, err := in.InitialState("main")
	if err != nil {
		t.Fatal(err)
	}
	call := func(name string, id uint64) (res *expr.Expr, err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s(%#x) panicked: %v", name, id, r)
			}
		}()
		c := &Ctx{In: in, S: s, T: s.CurThread()}
		return in.Builtins[name].Fn(c, []*expr.Expr{expr.Const(id, expr.W64)})
	}
	lastTID, lastPID := uint64(s.NextTID-1), uint64(s.NextPID-1)
	for _, b := range []struct {
		name    string
		last    uint64 // the last id of the table the builtin reads
		unknown bool   // an id that names none is an error, not a 0
	}{
		{"__c9_thread_alive", lastTID, false},
		{"__c9_join_wlist", lastTID, true},
		{"__c9_proc_exited", lastPID, false},
		{"__c9_proc_exit_wlist", lastPID, true},
		{"__c9_proc_exit_code", lastPID, true},
	} {
		for _, id := range []uint64{0, ^uint64(0), 1 << 40, b.last + 1} {
			res, err := call(b.name, id)
			switch {
			case b.unknown && (err == nil || !strings.Contains(err.Error(), "unknown")):
				t.Errorf("%s(%#x): error %v, want an unknown-id error", b.name, id, err)
			case !b.unknown && (err != nil || res.ConstVal() != 0):
				t.Errorf("%s(%#x) = %v, %v; want 0", b.name, id, res, err)
			}
		}
	}
	// The ids that exist still answer.
	if res, err := call("__c9_thread_alive", lastTID); err != nil || res.ConstVal() != 1 {
		t.Errorf("__c9_thread_alive(%d) = %v, %v; want 1", lastTID, res, err)
	}
	if res, err := call("__c9_join_wlist", lastTID); err != nil || res.ConstVal() != s.CurThread().JoinWlist {
		t.Errorf("__c9_join_wlist(%d) = %v, %v; want %d", lastTID, res, err, s.CurThread().JoinWlist)
	}
	if res, err := call("__c9_proc_exit_wlist", lastPID); err != nil || res.ConstVal() != s.Procs[s.CurThread().Proc].ExitWlist {
		t.Errorf("__c9_proc_exit_wlist(%d) = %v, %v; want %d", lastPID, res, err, s.Procs[s.CurThread().Proc].ExitWlist)
	}
}

// runToEnd advances a state that must not fork until it terminates.
func runToEnd(t *testing.T, in *Interp, s *state.S) {
	t.Helper()
	kids, err := in.Advance(s)
	if err != nil || kids != nil {
		t.Fatalf("Advance: kids=%d err=%v, want a run to the end", len(kids), err)
	}
}

// Coverage is reported once per run of instructions on one line: three
// instructions on line 1, then a return on line 2, are two reports.
func TestCoverReportedOncePerLineRun(t *testing.T) {
	prog := cvm.NewProgram("t")
	m := cvm.NewFuncBuilder("main", 0)
	m.SetLine(1)
	x := m.Const(1, expr.W32)
	y := m.Const(2, expr.W32)
	z := m.Bin(cvm.OpAdd, x, y, expr.W32)
	m.SetLine(2)
	m.Ret(z)
	prog.Funcs["main"] = m.Func()
	if err := prog.Validate(nil); err != nil {
		t.Fatal(err)
	}
	in := New(prog)
	var lines []int
	in.OnCover = func(line int) { lines = append(lines, line) }
	s, err := in.InitialState("main")
	if err != nil {
		t.Fatal(err)
	}
	runToEnd(t, in, s)
	if len(lines) != 2 || lines[0] != 1 || lines[1] != 2 {
		t.Fatalf("OnCover heard %v, want [1 2]", lines)
	}
	if in.Stats.Instructions != 4 {
		t.Fatalf("%d instructions, want 4", in.Stats.Instructions)
	}
}

// A call names its callee; linking binds it once the program is
// complete, so a caller built before its callee exists runs it.
func TestCallToLaterDefinedFunction(t *testing.T) {
	prog := cvm.NewProgram("t")
	m := cvm.NewFuncBuilder("main", 0)
	m.Ret(m.Call("late"))
	prog.Funcs["main"] = m.Func()
	late := cvm.NewFuncBuilder("late", 0)
	late.Ret(late.Const(42, expr.W32))
	prog.Funcs["late"] = late.Func()
	if err := prog.Validate(nil); err == nil || !strings.Contains(err.Error(), "not linked") {
		t.Fatalf("Validate before Link: %v, want the unlinked call", err)
	}
	prog.Link()
	if err := prog.Validate(nil); err != nil {
		t.Fatal(err)
	}
	in := New(prog)
	s, err := in.InitialState("main")
	if err != nil {
		t.Fatal(err)
	}
	runToEnd(t, in, s)
	if p := s.Procs[1]; !p.Exited || p.ExitCode != 42 {
		t.Fatalf("exited=%v code=%d (%s), want late's 42", p.Exited, p.ExitCode, s.TermMsg)
	}
}

// A name neither the program nor a builtin defines is the engine's error.
func TestCallToUnknownFunction(t *testing.T) {
	prog := cvm.NewProgram("t")
	m := cvm.NewFuncBuilder("main", 0)
	m.Ret(m.Call("nosuch"))
	prog.Funcs["main"] = m.Func()
	prog.Link()
	in := New(prog)
	s, err := in.InitialState("main")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Advance(s); err == nil || !strings.Contains(err.Error(), `call to unknown function "nosuch"`) {
		t.Fatalf("Advance: err = %v, want the unknown function", err)
	}
}

// A load through a symbolic index forks in the middle of its block: the
// error child ends there, and the in-bounds child stands at the load
// itself and, advanced, runs only the block's last three instructions.
func TestSymbolicLoadForksMidBlock(t *testing.T) {
	prog := cvm.NewProgram("t")
	prog.AddGlobal("sym", 1, nil)
	prog.AddGlobal("name", 2, []byte("x"))
	prog.AddGlobal("tab", 4, []byte{10, 20, 30, 40})
	m := cvm.NewFuncBuilder("main", 0)
	sym := m.GlobalAddr("sym")
	m.CallVoid("cloud9_make_symbolic", sym, m.Const(1, expr.W64), m.GlobalAddr("name"))
	idx := m.Conv(cvm.OpZExt, m.Load(sym, expr.W8), expr.W64)
	addr := m.Bin(cvm.OpAdd, m.GlobalAddr("tab"), idx, expr.W64)
	m.Ret(m.Conv(cvm.OpZExt, m.Load(addr, expr.W8), expr.W32))
	prog.Funcs["main"] = m.Func()
	prog.Link()
	if err := prog.Validate(func(name string) bool { return name == "cloud9_make_symbolic" }); err != nil {
		t.Fatal(err)
	}
	const load = 8 // the second load's index in the block
	if op := m.Func().Blocks[0].Instrs[load].Op; op != cvm.OpLoad {
		t.Fatalf("instruction %d is %v, want the load", load, op)
	}
	in := New(prog)
	s, err := in.InitialState("main")
	if err != nil {
		t.Fatal(err)
	}
	kids, err := in.Advance(s)
	if err != nil || len(kids) != 2 {
		t.Fatalf("Advance: %d children, err %v; want the bounds fork", len(kids), err)
	}
	oob, ok := kids[0], kids[1]
	if oob.Term != state.TermError || !strings.Contains(oob.TermMsg, "out-of-bounds") {
		t.Fatalf("error child: %v %q", oob.Term, oob.TermMsg)
	}
	if f := ok.CurThread().Top(); f.Block != 0 || f.PC != load {
		t.Fatalf("the in-bounds child stands at block %d pc %d, want block 0 pc %d", f.Block, f.PC, load)
	}
	before := ok.Steps
	runToEnd(t, in, ok)
	if ran := ok.Steps - before; ran != 3 {
		t.Fatalf("the in-bounds child ran %d instructions after the fork, want 3 (load, zext, ret)", ran)
	}
	if p := ok.Procs[1]; !p.Exited || p.ExitCode%10 != 0 || p.ExitCode < 10 || p.ExitCode > 40 {
		t.Fatalf("exited=%v code=%d (%s), want a table entry", p.Exited, p.ExitCode, ok.TermMsg)
	}
}
