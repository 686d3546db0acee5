package cc

import "cloud9/internal/cvm"

// CompileUnpromoted is Compile with every local left a memory object:
// the reference the differential test holds slot promotion to. Tests
// only; no caller can ask the compiler for it.
func CompileUnpromoted(name, src string, opts Options) (*cvm.Program, error) {
	return compileUnit(name, src, opts, false)
}
