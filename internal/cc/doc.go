// Package cc compiles a C subset to CVM IR — the front end that plays
// the role clang/llvm-gcc plays for KLEE. Target programs and the POSIX
// model prelude are written in this dialect.
//
// # Supported language
//
// Types:
//   - char (unsigned by default; "signed char" available), int (32-bit
//     signed), unsigned int, long / long long (64-bit), unsigned long,
//     void (function returns only)
//   - pointers (any depth), one-dimensional arrays of scalars
//     (globals and locals), array parameters (decay to pointers)
//
// Declarations:
//   - functions with fixed parameter lists; prototypes for forward or
//     extern references; extern/static qualifiers are accepted and
//     ignored
//   - file-scope variables with constant initializers; char arrays may
//     be initialized from string literals
//   - local variables anywhere in a block, with initializers and
//     comma-separated declarator lists
//
// Statements: expression statements, if/else, while, do-while, for,
// switch/case/default with fallthrough, break, continue, return,
// nested blocks.
//
// Expressions: the full C operator set except the conditional comma
// corner cases — assignment and compound assignment (+=, -=, *=, /=,
// %=, &=, |=, ^=, <<=, >>=), ternary ?:, short-circuit && and ||,
// bitwise and shift operators, comparisons, unary - ! ~ * & ++ --
// (prefix and postfix), array indexing, pointer arithmetic (scaled by
// element size, including pointer difference), casts, sizeof(type),
// character and string literals, decimal and hex integer literals,
// and the comma operator.
//
// # Deliberate omissions
//
// structs/unions/enums/typedef, function pointers, multi-dimensional
// arrays, varargs, floating point, goto, and the preprocessor (lines
// starting with '#' are skipped). The miniature targets and the POSIX
// model do not need them; thread entry points are named by string
// (cloud9_thread_create("fn", arg)) instead of function pointers.
//
// # Semantics notes
//
//   - char is unsigned (the engine's symbolic inputs are byte
//     variables); write "signed char" when signed byte arithmetic is
//     wanted.
//   - Integer conversions follow simplified usual-arithmetic rules:
//     promote to at least int, wider operand wins, unsigned wins ties.
//   - Every array and every local whose address is taken lives in its
//     own memory object, so out-of-bounds accesses between locals are
//     detected exactly. A scalar local or parameter that is only read
//     and assigned by name lives in a register of its function
//     (cvm.Program.PromoteSlots, run at the end of Compile): nothing
//     can point at it, and it reads 0 until first assigned, as the
//     zeroed object did.
//   - Lines attributed to instructions drive line coverage; prelude
//     lines are excluded via Options.CoverageStartLine.
package cc
