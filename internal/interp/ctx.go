package interp

import (
	"fmt"

	"cloud9/internal/expr"
	"cloud9/internal/mem"
	"cloud9/internal/state"
)

// Builtin is a host-implemented function callable from guest code. It
// receives evaluated arguments and returns the result expression (nil for
// void). Builtins signal blocking, forking and termination through Ctx.
type Builtin struct {
	Fn func(c *Ctx, args []*expr.Expr) (*expr.Expr, error)
	// MinArgs is the arity check (variadic builtins accept more).
	MinArgs int
}

// Ctx is the view a builtin gets of the executing state. It exposes the
// symbolic system call primitives (Table 1 of the paper) plus guest
// memory access helpers.
type Ctx struct {
	In *Interp
	S  *state.S
	T  *state.Thread

	// control effects requested by the builtin, applied by exec after it
	// returns.
	sleepOn   *uint64
	preempt   bool
	termThr   bool
	termProc  *int64
	termState *stateTermination
}

type stateTermination struct {
	kind state.TerminationKind
	msg  string
}

// decideSignal is thrown (via panic) by Decide to request a fork before
// side effects; execCall recovers it.
type decideSignal struct{ n int }

// ---- Fork primitives ----

// Decide returns a value in [0, n) — once per feasible alternative. The
// first execution forks the state n ways; each fork re-executes the call
// with a predetermined decision. Must be called before any guest-visible
// side effect, at most once per builtin invocation.
func (c *Ctx) Decide(n int) int {
	if n <= 1 {
		return 0
	}
	if c.S.HasDecision {
		c.S.HasDecision = false
		return c.S.Decision
	}
	panic(decideSignal{n})
}

// ---- Table 1 symbolic system calls ----

// MakeShared moves the object containing addr into the state's CoW
// domain (cloud9_make_shared).
func (c *Ctx) MakeShared(addr uint64) bool {
	return c.S.MakeShared(c.T.Proc, addr)
}

// ThreadCreate starts fn in the current process (cloud9_thread_create).
func (c *Ctx) ThreadCreate(fnName string, args []*expr.Expr) (state.ThreadID, error) {
	fn := c.S.Prog.Func(fnName)
	if fn == nil {
		return 0, fmt.Errorf("interp: thread entry %q not found", fnName)
	}
	return c.S.CreateThread(c.T.Proc, fn, args)
}

// ThreadTerminate ends the calling thread (cloud9_thread_terminate).
func (c *Ctx) ThreadTerminate() { c.termThr = true }

// ProcessFork duplicates the current process (cloud9_process_fork).
func (c *Ctx) ProcessFork() (state.ProcessID, state.ThreadID) {
	return c.S.ForkProcess(c.T.ID)
}

// ProcessTerminate exits the current process (cloud9_process_terminate).
func (c *Ctx) ProcessTerminate(code int64) { c.termProc = &code }

// Context returns the current pid and tid (cloud9_get_context).
func (c *Ctx) Context() (state.ProcessID, state.ThreadID) {
	return c.T.Proc, c.T.ID
}

// Preempt yields the CPU (cloud9_thread_preempt).
func (c *Ctx) Preempt() { c.preempt = true }

// SleepOn parks the calling thread on wl after the current call returns
// (cloud9_thread_sleep). Execution resumes after the call when notified.
func (c *Ctx) SleepOn(wl uint64) { w := wl; c.sleepOn = &w }

// Notify wakes one or all threads from wl (cloud9_thread_notify).
func (c *Ctx) Notify(wl uint64, all bool) { c.S.Notify(wl, all) }

// GetWaitList allocates a wait queue (cloud9_get_wlist).
func (c *Ctx) GetWaitList() uint64 { return c.S.NewWaitList() }

// ---- State termination ----

// TerminateState stops the whole execution state (error/hang/exit).
func (c *Ctx) TerminateState(kind state.TerminationKind, msg string) {
	c.termState = &stateTermination{kind, msg}
}

// ---- Guest memory helpers ----

// resolveWrite returns a writable object state for [addr, addr+size).
func (c *Ctx) resolveWrite(addr uint64, size int64) (*mem.ObjectState, int64, error) {
	space, os, off, ok := c.S.Resolve(c.T.Proc, addr)
	if !ok || off+size > os.Obj.Size {
		return nil, 0, fmt.Errorf("out-of-bounds write of %d bytes at %#x", size, addr)
	}
	return space.Writable(os), off, nil
}

func (c *Ctx) resolveRead(addr uint64, size int64) (*mem.ObjectState, int64, error) {
	_, os, off, ok := c.S.Resolve(c.T.Proc, addr)
	if !ok || off+size > os.Obj.Size {
		return nil, 0, fmt.Errorf("out-of-bounds read of %d bytes at %#x", size, addr)
	}
	return os, off, nil
}

// ReadMem loads a w-wide little-endian value from guest memory.
func (c *Ctx) ReadMem(addr uint64, w expr.Width) (*expr.Expr, error) {
	os, off, err := c.resolveRead(addr, int64(w.Bytes()))
	if err != nil {
		return nil, err
	}
	return os.Read(off, w), nil
}

// WriteMem stores a value to guest memory.
func (c *Ctx) WriteMem(addr uint64, e *expr.Expr) error {
	size := int64(e.Width().Bytes())
	os, off, err := c.resolveWrite(addr, size)
	if err != nil {
		return err
	}
	os.Write(off, e)
	return nil
}

// ReadBytes returns n byte expressions starting at addr.
func (c *Ctx) ReadBytes(addr uint64, n int64) ([]*expr.Expr, error) {
	os, off, err := c.resolveRead(addr, n)
	if err != nil {
		return nil, err
	}
	out := make([]*expr.Expr, n)
	for i := int64(0); i < n; i++ {
		out[i] = os.Byte(off + i)
	}
	return out, nil
}

// WriteBytes stores byte expressions starting at addr.
func (c *Ctx) WriteBytes(addr uint64, bytes []*expr.Expr) error {
	os, off, err := c.resolveWrite(addr, int64(len(bytes)))
	if err != nil {
		return err
	}
	for i, b := range bytes {
		os.PutByte(off+int64(i), b)
	}
	return nil
}

// ReadCString reads a NUL-terminated string. Symbolic bytes are
// concretized (pinning them with path constraints), matching KLEE's
// handling of file names and other strings the environment needs
// concretely.
func (c *Ctx) ReadCString(addr uint64) (string, error) {
	var out []byte
	for i := uint64(0); ; i++ {
		e, err := c.ReadMem(addr+i, expr.W8)
		if err != nil {
			return "", err
		}
		v := uint64(0)
		if e.IsConst() {
			v = e.ConstVal()
		} else {
			v, err = c.Concretize(e)
			if err != nil {
				return "", err
			}
		}
		if v == 0 {
			return string(out), nil
		}
		out = append(out, byte(v))
		if i > 1<<16 {
			return "", fmt.Errorf("unterminated C string at %#x", addr)
		}
	}
}

// Malloc allocates heap memory in the current process space.
func (c *Ctx) Malloc(size int64) (uint64, error) {
	if c.S.MaxHeap > 0 && c.S.HeapUsed+size > c.S.MaxHeap {
		return 0, nil // NULL: out of (configured) memory
	}
	os := c.S.Alloc.AllocateState(size, "heap")
	c.S.Procs[c.T.Proc].Space.Bind(os)
	c.S.HeapUsed += size
	return os.Obj.Base, nil
}

// Free releases a heap object. Freeing an unmapped address is a memory
// error the caller should surface.
func (c *Ctx) Free(addr uint64) error {
	p := c.S.Procs[c.T.Proc]
	if os, off, ok := p.Space.Resolve(addr); ok && off == 0 {
		p.Space.Unbind(os.Obj.Base)
		os.Unref()
		c.S.HeapUsed -= os.Obj.Size
		return nil
	}
	if os, off, ok := c.S.Shared.Resolve(addr); ok && off == 0 {
		c.S.Shared.Unbind(os.Obj.Base)
		os.Unref()
		return nil
	}
	return fmt.Errorf("free of invalid pointer %#x", addr)
}

// NewSymbolicBytes creates n fresh symbolic bytes named name.
func (c *Ctx) NewSymbolicBytes(name string, n int64) []*expr.Expr {
	out := make([]*expr.Expr, n)
	for i := int64(0); i < n; i++ {
		out[i] = c.S.NewSymbol(name)
	}
	return out
}

// Assume adds a constraint to the path condition, terminating the state
// if it becomes infeasible.
func (c *Ctx) Assume(cond *expr.Expr) error {
	sat, err := c.In.Solver.MayBeTrue(c.S.Constraints, cond)
	if err != nil {
		return err
	}
	if !sat {
		c.TerminateState(state.TermUnsatPath, "assumption infeasible")
		return nil
	}
	c.S.Constraints = c.S.Constraints.Append(cond)
	return nil
}

// Concretize pins a possibly-symbolic value to one feasible concrete
// value, adding the equality to the path condition.
func (c *Ctx) Concretize(e *expr.Expr) (uint64, error) {
	if e.IsConst() {
		return e.ConstVal(), nil
	}
	model, sat, err := c.In.Solver.Solve(c.S.Constraints)
	if err != nil {
		return 0, err
	}
	if !sat {
		return 0, fmt.Errorf("concretize on infeasible path")
	}
	v := evalUnder(e, model)
	c.S.Constraints = c.S.Constraints.Append(expr.Eq(e, expr.Const(v, e.Width())))
	return v, nil
}
