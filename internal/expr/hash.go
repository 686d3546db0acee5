package expr

// Structural hashing and equality. Expressions are hash-consed (see
// intern.go): every node carries its structural hash, node count, and
// free-variable summary, stamped once at construction. Hash() is a field
// read, Equal() is a pointer comparison, and the recursive walks survive
// only as Deep* reference implementations used by tests and benchmarks.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 {
	h ^= v
	h *= fnvPrime
	return h
}

// Hash returns the structural hash of e. Equal structures hash equally;
// collisions are possible and callers must confirm with Equal. O(1): the
// hash is stamped at construction.
func (e *Expr) Hash() uint64 { return e.hash }

// DeepHash recomputes the structural hash by walking the DAG (per
// occurrence). It is the reference implementation for Hash and must agree
// with it on every node; it exists for verification and benchmarking.
func (e *Expr) DeepHash() uint64 {
	h := uint64(fnvOffset)
	h = mix(h, uint64(e.op))
	h = mix(h, uint64(e.width))
	h = mix(h, e.val)
	if e.op == OpVar {
		h = mix(h, hashString(e.name))
	}
	for _, k := range e.kids {
		h = mix(h, k.DeepHash())
	}
	return h
}

// Equal reports structural equality of a and b. Interned nodes (all nodes
// built through this package's constructors) are canonical, so the fast
// path is pointer identity; the structural walk is kept only as a slow
// path for nodes that do not share an intern table (e.g. expressions from
// a different process in tests).
func Equal(a, b *Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.hash != b.hash {
		return false
	}
	return deepEqual(a, b)
}

func deepEqual(a, b *Expr) bool {
	if a.op != b.op || a.width != b.width || a.val != b.val || len(a.kids) != len(b.kids) {
		return false
	}
	if a.op == OpVar && a.name != b.name {
		return false
	}
	for i := range a.kids {
		if !Equal(a.kids[i], b.kids[i]) {
			return false
		}
	}
	return true
}

// Size returns the number of nodes in e (DAG nodes counted per
// occurrence, saturating at 2^32-1). O(1): stamped at construction.
func (e *Expr) Size() int { return int(e.size) }

// substMemoThreshold is the cached node count above which substitution
// allocates an identity-keyed memo. Hash consing makes shared subtrees
// literal pointer-shared, so the memo rewrites each distinct subtree once
// per query instead of once per occurrence; below the threshold the map
// costs more than the few nodes it could save.
const substMemoThreshold = 32

// SubstSlice replaces every variable bound in the dense assignment
// (vals[id] >= 0) with its constant and re-simplifies bottom-up. The
// solver uses it to collapse constraints to their residual free
// variables before domain scans. Subtrees without free variables are
// returned as-is, and large expressions are rewritten through an
// identity memo so shared subtrees are processed once.
func (e *Expr) SubstSlice(vals []int16) *Expr {
	if e.vars.Empty() {
		return e
	}
	var memo map[*Expr]*Expr
	if e.size >= substMemoThreshold {
		memo = make(map[*Expr]*Expr)
	}
	return e.substSlice(vals, memo)
}

func (e *Expr) substSlice(vals []int16, memo map[*Expr]*Expr) *Expr {
	switch e.op {
	case OpConst:
		return e
	case OpVar:
		if e.val < uint64(len(vals)) && vals[e.val] >= 0 {
			return Const(uint64(vals[e.val]), e.width)
		}
		return e
	}
	if e.vars.Empty() {
		return e
	}
	if memo != nil {
		if r, ok := memo[e]; ok {
			return r
		}
	}
	kids := make([]*Expr, len(e.kids))
	changed := false
	for i, k := range e.kids {
		kids[i] = k.substSlice(vals, memo)
		if kids[i] != k {
			changed = true
		}
	}
	res := e
	if changed {
		res = rebuild(e, kids)
	}
	if memo != nil {
		memo[e] = res
	}
	return res
}

// SubstConsts replaces every variable that has a binding in a with its
// constant value and re-simplifies bottom-up. Unbound variables are kept.
// Subtrees whose cached variable summary is disjoint from a's domain are
// returned untouched without being walked.
func (e *Expr) SubstConsts(a Assignment) *Expr {
	if e.vars.Empty() || len(a) == 0 {
		return e
	}
	return e.SubstConstsWith(a, a.VarSet())
}

// SubstConstsWith is SubstConsts with the assignment's variable summary
// precomputed by the caller (see Assignment.VarSet). Hot loops that
// substitute one assignment into many constraints — the solver's unit
// propagation — build the summary once instead of per constraint.
func (e *Expr) SubstConstsWith(a Assignment, bound *VarSet) *Expr {
	if e.vars.Empty() || len(a) == 0 || !e.vars.Intersects(bound) {
		return e
	}
	var memo map[*Expr]*Expr
	if e.size >= substMemoThreshold {
		memo = make(map[*Expr]*Expr)
	}
	return e.substConsts(a, bound, memo)
}

func (e *Expr) substConsts(a Assignment, bound *VarSet, memo map[*Expr]*Expr) *Expr {
	switch e.op {
	case OpConst:
		return e
	case OpVar:
		if v, ok := a[e.val]; ok {
			return Const(uint64(v), e.width)
		}
		return e
	}
	if !e.vars.Intersects(bound) {
		return e
	}
	if memo != nil {
		if r, ok := memo[e]; ok {
			return r
		}
	}
	kids := make([]*Expr, len(e.kids))
	changed := false
	for i, k := range e.kids {
		kids[i] = k.substConsts(a, bound, memo)
		if kids[i] != k {
			changed = true
		}
	}
	res := e
	if changed {
		res = rebuild(e, kids)
	}
	if memo != nil {
		memo[e] = res
	}
	return res
}

// VarSet summarizes the assignment's bound ids, for the disjointness
// pruning in SubstConstsWith.
func (a Assignment) VarSet() *VarSet {
	s := &VarSet{}
	for id := range a {
		s.add(id)
	}
	return s.seal()
}

// VarSetOf summarizes distinct ids, in any order; ids is not kept.
func VarSetOf(ids []uint64) *VarSet {
	s := &VarSet{}
	for _, id := range ids {
		s.add(id)
	}
	return s.seal()
}

func (s *VarSet) add(id uint64) {
	if id < 64 {
		s.lo |= 1 << id
	} else {
		s.hi = append(s.hi, id)
	}
}

// seal sorts the spill ids and counts the set, once every id is added.
func (s *VarSet) seal() *VarSet {
	if len(s.hi) > 1 {
		sortIDs(s.hi)
	}
	s.n = popcount64(s.lo) + len(s.hi)
	return s
}

func rebuild(e *Expr, kids []*Expr) *Expr {
	switch e.op {
	case OpNot:
		return Not(kids[0])
	case OpLAnd:
		return LAnd(kids[0], kids[1])
	case OpLOr:
		return LOr(kids[0], kids[1])
	case OpConcat:
		return Concat(kids[0], kids[1])
	case OpExtract:
		return Extract(kids[0], uint(e.val), e.width)
	case OpZExt:
		return ZExt(kids[0], e.width)
	case OpSExt:
		return SExt(kids[0], e.width)
	case OpIte:
		return Ite(kids[0], kids[1], kids[2])
	default:
		return Binary(e.op, kids[0], kids[1])
	}
}
