package serve

import (
	"sync"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/sip"
)

// compileSource compiles SIAL source for a job; a variable so tests can
// count compiles.
var compileSource = compiler.CompileSource

// Env is the runtime environment a pack supplies for one job: block
// presets, super instructions, and the integral source, all possibly
// shaped by the job's parameters.
type Env struct {
	Preset    map[string]sip.PresetFunc
	Super     map[string]sip.SuperFunc
	Integrals sip.IntegralFunc
}

// Pack bundles a canonical SIAL program with the environment it needs,
// so a client can submit `{"pack": "mp2", "params": {...}}` without
// shipping source or knowing which super instructions the program
// binds.  The serve package defines no packs itself — cmd/sial
// registers the chemistry ones (mp2, scf) and tests register their own
// — keeping serve free of chem dependencies.
type Pack struct {
	// Source is the canonical SIAL program run when a submission names
	// the pack without its own source.
	Source string
	// Env builds the runtime environment for one job's parameters.  Nil
	// means the program needs none (pure synthetic-integral programs).
	Env func(params map[string]int) Env
	// Description is a one-line summary shown in /packs.
	Description string
}

// packEntry is a registered pack plus its compiled Source.  The program
// depends on nothing a submission varies (parameters, segment size and
// topology are bound later, by Resolve and the dry run), so it is
// compiled once, on first use, and shared read-only by every job of the
// pack.
type packEntry struct {
	Pack
	once sync.Once
	prog *bytecode.Program
	err  error
}

// program returns the pack's compiled Source, compiling it on the first
// call; a compile error is kept and returned to every caller.
func (e *packEntry) program() (*bytecode.Program, error) {
	e.once.Do(func() { e.prog, e.err = compileSource(e.Source) })
	return e.prog, e.err
}

// RegisterPack makes a pack available to submissions on this service.
// Re-registering a name replaces it, and with it the compiled program:
// the next submission of the name compiles the new source.
func (s *Service) RegisterPack(name string, p Pack) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.packs[name] = &packEntry{Pack: p}
}

// pack looks up a registered pack.
func (s *Service) pack(name string) (*packEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.packs[name]
	return p, ok
}

// Packs lists registered pack names and descriptions.
func (s *Service) Packs() map[string]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]string, len(s.packs))
	for name, p := range s.packs {
		out[name] = p.Description
	}
	return out
}
