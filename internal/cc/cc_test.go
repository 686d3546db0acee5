package cc

import (
	"strings"
	"testing"

	"cloud9/internal/cvm"
	"cloud9/internal/expr"
)

func compile(t *testing.T, src string) *cvm.Program {
	t.Helper()
	prog, err := Compile("t.c", src, Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func compileErr(t *testing.T, src string) error {
	t.Helper()
	_, err := Compile("t.c", src, Options{})
	if err == nil {
		t.Fatal("expected a compile error")
	}
	return err
}

func TestLexerTokens(t *testing.T) {
	toks := lex(`int x = 0x1f + 'a'; // comment
	/* block */ char *s = "hi\n";`)
	var kinds []tokKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	if toks[0].text != "int" || toks[0].kind != tokKeyword {
		t.Errorf("tok0 = %v", toks[0])
	}
	if toks[3].kind != tokNumber || toks[3].val != 0x1f {
		t.Errorf("hex literal = %v", toks[3])
	}
	if toks[5].kind != tokChar || toks[5].val != 'a' {
		t.Errorf("char literal = %v", toks[5])
	}
	found := false
	for _, tk := range toks {
		if tk.kind == tokString && tk.text == "hi\n" {
			found = true
		}
	}
	if !found {
		t.Errorf("string literal missing in %v", kinds)
	}
}

func TestLexerLineNumbers(t *testing.T) {
	toks := lex("int a;\nint b;\nint c;")
	for _, tk := range toks {
		if tk.text == "c" && tk.line != 3 {
			t.Errorf("c at line %d", tk.line)
		}
	}
}

func TestLexerPreprocessorSkipped(t *testing.T) {
	toks := lex("#include <stdio.h>\nint x;")
	if toks[0].text != "int" {
		t.Errorf("preprocessor not skipped: %v", toks[0])
	}
}

func TestCompileMinimal(t *testing.T) {
	prog := compile(t, `int main() { return 0; }`)
	if prog.Func("main") == nil {
		t.Fatal("main missing")
	}
}

func TestCompileErrorsAreDiagnosed(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`int main() { return x; }`, "undefined identifier"},
		{`int main() { foo(); }`, "undeclared function"},
		{`int main( { return 0; }`, "expected"},
		{`int f(int a) { return a; } int main() { return f(1,2); }`, "args"},
		{`int main() { break; }`, "break outside"},
		{`int main() { continue; }`, "continue outside"},
		{`int main() { 5 = 3; return 0; }`, "not an lvalue"},
		{`int main() { int x; return *x; }`, "dereference of non-pointer"},
	}
	for _, c := range cases {
		err := compileErr(t, c.src)
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("src %q: error %q does not mention %q", c.src, err, c.want)
		}
	}
}

func TestPrototypesAllowForwardCalls(t *testing.T) {
	compile(t, `
		int helper(int x);
		int main() { return helper(1); }
		int helper(int x) { return x + 1; }`)
}

func TestGlobalInitializers(t *testing.T) {
	prog := compile(t, `
		int a = 42;
		int b = -1;
		long c = 1 << 20;
		char msg[4] = "hi";
		int main() { return 0; }`)
	byName := map[string]*cvm.Global{}
	for _, g := range prog.Globals {
		byName[g.Name] = g
	}
	if got := byName["a"]; got.Size != 4 || got.Init[0] != 42 {
		t.Errorf("a = %+v", got)
	}
	if got := byName["b"]; got.Init[0] != 0xff || got.Init[3] != 0xff {
		t.Errorf("b init = %v", got.Init)
	}
	if got := byName["c"]; got.Size != 8 || got.Init[2] != 0x10 {
		t.Errorf("c init = %v", got.Init)
	}
	if got := byName["msg"]; string(got.Init[:2]) != "hi" {
		t.Errorf("msg init = %q", got.Init)
	}
}

func TestNonConstGlobalInitRejected(t *testing.T) {
	err := compileErr(t, `
		int f(void);
		int g = f();
		int main() { return 0; }`)
	if !strings.Contains(err.Error(), "constant") {
		t.Errorf("error %q", err)
	}
}

func TestTypeSizes(t *testing.T) {
	if TypeChar.Size() != 1 || TypeInt.Size() != 4 || TypeLong.Size() != 8 {
		t.Fatal("scalar sizes wrong")
	}
	if Ptr(TypeInt).Size() != 8 {
		t.Fatal("pointer size wrong")
	}
	if ArrayOf(TypeInt, 10).Size() != 40 {
		t.Fatal("array size wrong")
	}
}

func TestUsualArithmeticConversions(t *testing.T) {
	cases := []struct {
		a, b, want *Type
	}{
		{TypeChar, TypeChar, TypeInt}, // both promote to int
		{TypeInt, TypeLong, TypeLong}, // wider wins
		{TypeUInt, TypeInt, TypeUInt}, // unsigned wins ties
		{TypeInt, TypeInt, TypeInt},
		{TypeULong, TypeInt, TypeULong},
	}
	for _, c := range cases {
		got := usualArith(c.a, c.b)
		if got.W != c.want.W || got.Signed != c.want.Signed {
			t.Errorf("usualArith(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	if Ptr(TypeChar).String() != "char*" {
		t.Errorf("ptr string = %q", Ptr(TypeChar).String())
	}
	if ArrayOf(TypeInt, 3).String() != "int[3]" {
		t.Errorf("array string = %q", ArrayOf(TypeInt, 3).String())
	}
}

func TestCoverageStartLineStripsPrelude(t *testing.T) {
	src := "int helper() { return 1; }\nint main() { return helper(); }"
	progAll, err := Compile("t.c", src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	progStripped, err := Compile("t.c", src, Options{CoverageStartLine: 2})
	if err != nil {
		t.Fatal(err)
	}
	if progStripped.CoverableLines() >= progAll.CoverableLines() {
		t.Errorf("stripping did not reduce coverable lines: %d vs %d",
			progStripped.CoverableLines(), progAll.CoverableLines())
	}
}

func TestGeneratedIRValidates(t *testing.T) {
	// A broad program exercising every construct; Compile validates the
	// IR internally, so success implies well-formed output.
	compile(t, `
		int g = 3;
		char buf[16];
		long wide = 0;

		int helper(int a, char *p) {
			return a + p[0];
		}

		int main() {
			int i;
			int acc = 0;
			for (i = 0; i < 4; i++) {
				acc += i;
				if (acc > 2) continue;
				acc ^= 1;
			}
			while (acc > 0) { acc--; if (acc == 1) break; }
			do { acc++; } while (acc < 3);
			switch (acc) {
			case 1: acc = 10; break;
			case 3: acc = 30; // fallthrough
			default: acc = acc + 1;
			}
			char *p = buf;
			p[0] = 'x';
			*(p + 1) = 'y';
			buf[2] = (char)(acc & 0xff);
			int t = acc > 5 ? 1 : 0;
			acc = t ? helper(acc, p) : -helper(1, buf);
			long l = (long)acc * sizeof(int);
			wide = l >> 2;
			g = !g;
			int neg = ~g;
			acc = neg % 7;
			acc++;
			--acc;
			return acc;
		}`)
}

func TestSignedVsUnsignedComparison(t *testing.T) {
	// Ensure comparisons pick signed/unsigned opcodes correctly.
	prog := compile(t, `
		int main() {
			unsigned int u = 1;
			int s = -1;
			char c = 200;
			if (u < 2) {}
			if (s < 0) {}
			if (c > 100) {} // char is unsigned in this dialect
			return 0;
		}`)
	var ops []cvm.Opcode
	for _, b := range prog.Func("main").Blocks {
		for _, in := range b.Instrs {
			if in.Op == cvm.OpUlt || in.Op == cvm.OpSlt {
				ops = append(ops, in.Op)
			}
		}
	}
	if len(ops) != 3 {
		t.Fatalf("expected 3 comparisons, got %v", ops)
	}
	if ops[0] != cvm.OpUlt {
		t.Error("unsigned compare should be ult")
	}
	if ops[1] != cvm.OpSlt {
		t.Error("signed compare should be slt")
	}
}

func TestStringLiteralsBecomeGlobals(t *testing.T) {
	prog := compile(t, `
		char *f() { return "abc"; }
		int main() { f(); return 0; }`)
	found := false
	for _, g := range prog.Globals {
		if strings.HasPrefix(g.Name, ".str") && string(g.Init) == "abc\x00" {
			found = true
		}
	}
	if !found {
		t.Fatalf("string literal global missing: %+v", prog.Globals)
	}
}

func TestSizeofIsULong(t *testing.T) {
	prog := compile(t, `
		long f() { return sizeof(long) + sizeof(char*); }
		int main() { return 0; }`)
	// sizeof(long) + sizeof(char*) = 16; the function folds to consts.
	f := prog.Func("f")
	foundConst := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == cvm.OpConst && in.Imm == 8 && in.W == expr.W64 {
				foundConst = true
			}
		}
	}
	if !foundConst {
		t.Error("sizeof did not produce 8-byte constants")
	}
}

func TestVariadicExternAllowed(t *testing.T) {
	_, err := Compile("t.c", `
		int printf2(char *fmt);
		int main() { return 0; }`, Options{
		Externs: map[string]*Signature{
			"printf2": {Ret: TypeInt, Params: []*Type{Ptr(TypeChar)}, Variadic: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// slotKinds renders fn's slots in order, P for one promoted to a
// register and M for one left a memory object.
func slotKinds(fn *cvm.Func) string {
	var s strings.Builder
	for i := range fn.Slots {
		if fn.SlotReg(i) >= 0 {
			s.WriteByte('P')
		} else {
			s.WriteByte('M')
		}
	}
	return s.String()
}

// Which locals of f end up in registers: the scalars nobody takes the
// address of, whatever their type, and nothing else. Slots come in
// declaration order, parameters first. (The dialect has no 2-byte type;
// internal/cvm's tests promote one on hand-built IR.)
func TestSlotPromotion(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"plain scalar local", `int f() { int x = 1; x = x + 1; return x; }`, "P"},
		{"spilled parameter", `int f(int a, char *s) { return a + s[0]; }`, "PP"},
		{"address passed to a call", `void g(int *p) { *p = 1; } int f() { int x = 0; int y = 0; g(&x); return x + y; }`, "MP"},
		{"address stored into a pointer", `int f() { int x = 0; int *p; p = &x; return *p; }`, "MP"},
		{"address taken and dropped", `int f() { int x = 3; &x; return x; }`, "P"},
		{"dereferenced in place", `int f() { int x = 3; return *&x; }`, "P"},
		{"read through a narrower type", `int f() { int i = 258; return *(char*)&i; }`, "M"},
		{"char buf[8]", `int f() { char buf[8]; buf[0] = 1; return buf[0]; }`, "M"},
		{"int a[2], the size of a long", `int f() { int a[2]; a[1] = 3; return a[1]; }`, "M"},
		{"char c[1], the size of a char", `int f() { char c[1]; c[0] = 1; return *c; }`, "M"},
		{"array handed to a call", `int g(char *s) { return s[0]; } int f() { char b[4]; b[0] = 0; return g(b); }`, "M"},
		{"pointer-typed local", `int f(char *s) { char *p = s; p++; return *p; }`, "PP"},
		{"pointer to a local", `int f() { int x = 1; int *p = &x; int **pp = &p; return **pp; }`, "MMP"},
		{"read before it is written", `int f() { int x; return x; }`, "P"},
		{"declared inside a loop", `int f(int n) { int s = 0; for (int i = 0; i < n; i++) { int t = i; s += t; } return s; }`, "PPPP"},
		{"char, long and unsigned locals", `long f() { char c = 1; long l = 2; unsigned int u = 3; signed char sc = 4; return c + l + u + sc; }`, "PPPP"},
		{"temporaries of && || ?:", `int f(int a, int b) { return (a && b) || (a ? b : 2); }`, "PPPPP"},
		{"incremented and compound-assigned", `int f() { int x = 0; x++; --x; x += 2; x <<= 1; return x; }`, "P"},
	}
	for _, c := range cases {
		prog := compile(t, c.src)
		if got := slotKinds(prog.Func("f")); got != c.want {
			t.Errorf("%s: slots %s, want %s\n%s", c.name, got, c.want, prog.Func("f").Disasm())
		}
	}
}
