package sip_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/chem"
	"repro/internal/sip"
)

// TestLookAheadChangesNoResult is the differential property of
// look-ahead: it moves fetches earlier and nothing else, so every
// chemistry program that gets or requests blocks gives bit-identical
// scalars and gathered arrays whatever the window and however small the
// cache, in-process and over TCP loopback.
//
// Bit-identical needs a fixed summation order.  Arrays have one: each
// block is put by one pardo iteration.  A scalar summed over a pardo does
// not when workers share the pardo, so the two programs that report one
// run on a single worker; their served arrays live on the I/O server, so
// their requests still travel.
func TestLookAheadChangesNoResult(t *testing.T) {
	const norb, nocc, iters, no, nv = 6, 2, 2, 3, 5
	ao := sip.Config{Workers: 2, GatherArrays: true, Integrals: chem.AOIntegrals()}
	ccsdTerm := ao
	ccsdTerm.Params = map[string]int{"norb": norb, "nocc": nocc}
	ccsdTerm.Preset = map[string]sip.PresetFunc{"T": chem.PresetFromElem(tInit)}
	ccsdEnergy := ccsdTerm
	ccsdEnergy.Params = map[string]int{"norb": norb, "nocc": nocc, "iters": iters}
	ccsdEnergy.Workers, ccsdEnergy.Servers = 1, 1
	fock := ao
	fock.Params = map[string]int{"norb": norb}
	fock.Preset = map[string]sip.PresetFunc{"Dn": chem.PresetFromElem(chem.ModelDensity)}
	mp2Served := sip.Config{Workers: 1, Servers: 1, GatherArrays: true, Params: map[string]int{"no": no, "nv": nv},
		Integrals: chem.MOIntegrals(no), Super: chem.MP2Super()}

	programs := []struct {
		name     string
		src      string
		cfg      sip.Config
		minCache int  // blocks the program holds between a get and its use
		loops    bool // gets inside do loops: look-ahead has something to do
	}{
		{"CCSDTerm", chem.CCSDTermProgram(), ccsdTerm, 1, true},
		{"CCSDEnergy", chem.CCSDEnergyProgram(), ccsdEnergy, 1, true},
		{"FockBuild", chem.FockBuildProgram(), fock, 1, true},
		{"MP2Served", chem.MP2ServedProgram(), mp2Served, 2, false},
	}
	for _, pc := range programs {
		prog := mustCompile(t, pc.src)
		run := func(t *testing.T, e entry, window, cache int) (string, int64) {
			cfg := pc.cfg
			cfg.Seg = bytecode.DefaultSegConfig(2)
			cfg.PrefetchWindow, cfg.CacheBlocks = window, cache
			cfg.Output = &bytes.Buffer{}
			res, profiles, _, err := e.run(t, prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var prefetches int64
			for _, p := range profiles {
				prefetches += p.Prefetches()
			}
			return fingerprint(res), prefetches
		}
		want, _ := run(t, entries[0], -1, 16)
		if want == "" {
			t.Fatalf("%s: the reference run reported nothing to compare", pc.name)
		}
		for _, e := range entries[:2] { // Run, RunRank over TCP loopback
			for _, window := range []int{-1, 1, 4, 64} {
				for _, cache := range []int{1, 2, 16} {
					if cache < pc.minCache {
						continue
					}
					t.Run(fmt.Sprintf("%s/%s/window=%d/cache=%d", pc.name, e.name, window, cache), func(t *testing.T) {
						got, prefetches := run(t, e, window, cache)
						if got != want {
							t.Errorf("result differs from the run without look-ahead:\n got %s\nwant %s", got, want)
						}
						if on := window > 0 && cache >= 2 && pc.loops; on != (prefetches > 0) {
							t.Errorf("%d look-ahead fetches; look-ahead should engage here: %v", prefetches, on)
						}
					})
				}
			}
		}
	}
}

// fingerprint renders a result's scalars and gathered blocks exactly
// (hex floats), in a fixed order.
func fingerprint(res *sip.Result) string {
	var b bytes.Buffer
	names := make([]string, 0, len(res.Scalars))
	for name := range res.Scalars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s=%x ", name, res.Scalars[name])
	}
	for _, arrays := range []map[string][]sip.ArrayBlock{res.Arrays, res.Served} {
		names = names[:0]
		for name := range arrays {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			blocks := append([]sip.ArrayBlock(nil), arrays[name]...)
			sort.Slice(blocks, func(i, j int) bool { return blocks[i].Ord < blocks[j].Ord })
			for _, blk := range blocks {
				fmt.Fprintf(&b, "%s[%d]=%x ", name, blk.Ord, blk.Data)
			}
		}
	}
	return b.String()
}
