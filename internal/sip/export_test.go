package sip

import (
	"path/filepath"
	"sort"

	"repro/internal/bytecode"
)

// RestartedServerIndex plays the start-up disk scan of a fresh
// incarnation of the I/O server on rank over cfg.ScratchDir and returns
// the names of the block files it adopted, sorted — for the external
// test package, which can drive the chemistry programs.
func RestartedServerIndex(prog *bytecode.Program, cfg Config, rank int) ([]string, error) {
	rt, err := newRuntime(prog, cfg, nil, placement{})
	if err != nil {
		return nil, err
	}
	defer rt.close()
	s := newIOServer(rt, rank)
	if err := s.scanDisk(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(s.onDisk))
	for k := range s.onDisk {
		names = append(names, filepath.Base(s.blockPath(k)))
	}
	sort.Strings(names)
	return names, nil
}
