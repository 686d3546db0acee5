package search

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"cloud9/internal/cfg"
	"cloud9/internal/engine"
	"cloud9/internal/tree"
)

// Spec is a parsed strategy (or classifier) term: a name, an optional
// ":N" integer parameter and parenthesized arguments. Specs serialize
// back to strings with String, so a strategy assignment is plain data
// the cluster can put on the wire.
type Spec struct {
	Name     string
	Param    int
	HasParam bool
	Args     []*Spec
}

// String renders the spec in its canonical parseable form.
func (s *Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	if s.HasParam {
		fmt.Fprintf(&b, ":%d", s.Param)
	}
	if len(s.Args) > 0 {
		b.WriteByte('(')
		for i, a := range s.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(a.String())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// containsRandomPath reports whether building the spec tree would
// instantiate a RandomPath — including through interleave's *default*
// arguments (bare "interleave"/"interleaved" builds random-path ⊕
// cov-opt), which a plain name search would miss.
func (s *Spec) containsRandomPath() bool {
	if s.Name == "random-path" {
		return true
	}
	if (s.Name == "interleave" || s.Name == "interleaved") && len(s.Args) == 0 {
		return true
	}
	for _, a := range s.Args {
		if a.containsRandomPath() {
			return true
		}
	}
	return false
}

// Parse parses a spec string. Grammar:
//
//	SPEC := NAME [":" INT] ["(" SPEC {"," SPEC} ")"]
//	NAME := [a-zA-Z0-9_-]+
func Parse(spec string) (*Spec, error) {
	p := &parser{src: spec}
	s, err := p.parseSpec()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("search: trailing input at %d in %q", p.pos, spec)
	}
	return s, nil
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func nameChar(c byte) bool {
	return c == '-' || c == '_' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func (p *parser) parseSpec() (*Spec, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && nameChar(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("search: expected a name at %d in %q", p.pos, p.src)
	}
	s := &Spec{Name: p.src[start:p.pos]}
	if p.pos < len(p.src) && p.src[p.pos] == ':' {
		p.pos++
		numStart := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		v, err := strconv.Atoi(p.src[numStart:p.pos])
		if err != nil {
			return nil, fmt.Errorf("search: bad parameter after %q in %q", s.Name, p.src)
		}
		s.Param, s.HasParam = v, true
	}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		p.pos++
		for {
			arg, err := p.parseSpec()
			if err != nil {
				return nil, err
			}
			s.Args = append(s.Args, arg)
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("search: unclosed '(' in %q", p.src)
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			return nil, fmt.Errorf("search: expected ',' or ')' at %d in %q", p.pos, p.src)
		}
	}
	return s, nil
}

// ---- The strategy vocabulary ----

// leaves builds the strategies that take no arguments, by spec name.
var leaves = map[string]func(b *builder) engine.Strategy{
	"dfs":           func(*builder) engine.Strategy { return engine.NewDFS() },
	"bfs":           func(*builder) engine.Strategy { return engine.NewBFS() },
	"random":        func(b *builder) engine.Strategy { return engine.NewRandom(b.deriveSeed()) },
	"random-path":   func(b *builder) engine.Strategy { return engine.NewRandomPath(b.tree, b.deriveSeed()) },
	"cov-opt":       func(b *builder) engine.Strategy { return engine.NewCoverageOptimized(b.deriveSeed()) },
	"dist-opt":      func(b *builder) engine.Strategy { return engine.NewDistanceOptimized(b.dist, b.deriveSeed()) },
	"fewest-faults": func(*builder) engine.Strategy { return engine.NewFewestFaults() },
}

// StrategyNames lists the strategy names, sorted: the leaves, cupa, and
// interleave with its alias interleaved.
func StrategyNames() []string {
	names := append(slices.Collect(maps.Keys(leaves)), "cupa", "interleave", "interleaved")
	slices.Sort(names)
	return names
}

// builder carries what building a strategy needs: the worker's
// execution tree, its distance-to-uncovered oracle (nil when no program
// is attached — e.g. Validate — in which case distance strategies
// degrade gracefully rather than fail), and a deterministic seed stream
// (every randomized sub-strategy pulls a distinct, reproducible seed —
// the lock-step sim depends on it).
type builder struct {
	tree *tree.Tree
	dist *cfg.Distance
	seed int64
}

// deriveSeed returns the next seed in the builder's deterministic
// stream (splitmix64 step, never zero).
func (b *builder) deriveSeed() int64 {
	b.seed += -7046029254386353131 // splitmix64 golden-gamma increment
	z := uint64(b.seed)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return int64(z &^ (1 << 63))
}

// build constructs the strategy a parsed spec describes. No strategy
// takes a ":N" parameter: accepting and ignoring one would make two
// visibly different specs, "dfs" and "dfs:5", behave identically.
func (b *builder) build(s *Spec) (engine.Strategy, error) {
	if s.HasParam {
		return nil, fmt.Errorf("search: strategy %s takes no parameter", s.Name)
	}
	switch s.Name {
	case "interleave", "interleaved":
		return b.interleave(s.Args)
	case "cupa":
		return b.cupa(s.Args)
	}
	leaf := leaves[s.Name]
	if leaf == nil {
		return nil, fmt.Errorf("search: unknown strategy %q (have %v)", s.Name, StrategyNames())
	}
	if len(s.Args) != 0 {
		return nil, fmt.Errorf("search: %s takes no arguments", s.Name)
	}
	return leaf(b), nil
}

// interleave(a,b,...) round-robins sub-strategies; bare "interleave"
// is the paper's evaluation default (random-path ⊕ cov-opt, §7).
func (b *builder) interleave(args []*Spec) (engine.Strategy, error) {
	if len(args) == 0 {
		args = []*Spec{{Name: "random-path"}, {Name: "cov-opt"}}
	}
	subs := make([]engine.Strategy, len(args))
	for i, a := range args {
		s, err := b.build(a)
		if err != nil {
			return nil, err
		}
		subs[i] = s
	}
	return engine.NewInterleaved(subs...), nil
}

// cupa(class[,class...],inner): one CUPA level per classifier,
// innermost delegating to the final strategy spec.
func (b *builder) cupa(args []*Spec) (engine.Strategy, error) {
	if len(args) < 2 {
		return nil, fmt.Errorf("search: cupa needs at least (classifier, inner-strategy)")
	}
	inner := args[len(args)-1]
	if inner.containsRandomPath() {
		// RandomPath ignores Add/Remove and walks the whole tree, so as
		// a per-class policy it would select outside its class and break
		// CUPA's bookkeeping.
		return nil, fmt.Errorf("search: random-path cannot be a cupa inner strategy (it ignores the per-class candidate set)")
	}
	classifiers := make([]Classifier, len(args)-1)
	for i, a := range args[:len(args)-1] {
		cls, err := b.classifier(a)
		if err != nil {
			return nil, err
		}
		classifiers[i] = cls
	}
	// Surface inner-spec construction errors once, up front; after this
	// the spec cannot fail to build, so the lazy per-class builds may
	// panic.
	if _, err := b.build(inner); err != nil {
		return nil, err
	}
	// Nest from the innermost classifier outward: each level's class
	// strategy is a fresh instance of the level below, each pulling its
	// own seed from the builder's deterministic stream.
	build := func() engine.Strategy {
		s, err := b.build(inner)
		if err != nil {
			panic(err) // validated above
		}
		return s
	}
	for level := len(classifiers) - 1; level >= 0; level-- {
		cls, below := classifiers[level], build
		build = func() engine.Strategy {
			return NewCUPA(cls, below, b.deriveSeed())
		}
	}
	return build(), nil
}

// Build parses spec and constructs the strategy over t. d is the
// worker's distance oracle (nil allowed: distance strategies fall back
// to neutral ranking). seed drives every randomized component
// deterministically: the same (spec, seed) always yields the same
// selection sequence.
func Build(spec string, t *tree.Tree, d *cfg.Distance, seed int64) (engine.Strategy, error) {
	ast, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	return (&builder{tree: t, dist: d, seed: seed}).build(ast)
}

// Factory parses spec once and returns the constructor
// engine.Config.Strategy wants: each call builds a fresh strategy from
// the same (spec, seed). The empty spec returns nil, the engine's own
// default; a spec that does not parse or build (against a throwaway
// tree, as in Validate) is an error.
func Factory(spec string, seed int64) (func(*tree.Tree, *cfg.Distance) engine.Strategy, error) {
	if spec == "" {
		return nil, nil
	}
	ast, err := Parse(spec)
	if err == nil {
		_, err = (&builder{tree: tree.New(nil, nil), seed: seed}).build(ast)
	}
	if err != nil {
		return nil, err
	}
	return func(t *tree.Tree, d *cfg.Distance) engine.Strategy {
		s, err := (&builder{tree: t, dist: d, seed: seed}).build(ast)
		if err != nil {
			panic(err) // the same spec built just above
		}
		return s
	}, nil
}

// Validate checks that spec parses and builds (against a throwaway
// tree, with no distance oracle). Use it to reject bad portfolio
// entries at configuration time, before a worker ever joins — notably
// the load balancer validates portfolios without loading any program,
// which is why distance strategies must build with a nil oracle.
func Validate(spec string) error {
	_, err := Build(spec, tree.New(nil, nil), nil, 1)
	return err
}

// ParsePortfolio splits a comma-separated portfolio flag into specs,
// respecting parentheses: "dfs,cupa(site,dfs),random" has three
// entries. Each entry is validated.
func ParsePortfolio(flag string) ([]string, error) {
	var specs []string
	depth, start := 0, 0
	flush := func(end int) {
		if s := strings.TrimSpace(flag[start:end]); s != "" {
			specs = append(specs, s)
		}
		start = end + 1
	}
	for i := 0; i < len(flag); i++ {
		switch flag[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				flush(i)
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("search: unbalanced parentheses in portfolio %q", flag)
	}
	flush(len(flag))
	for _, s := range specs {
		if err := Validate(s); err != nil {
			return nil, err
		}
	}
	return specs, nil
}
