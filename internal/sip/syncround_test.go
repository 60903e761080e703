package sip

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/wire"
)

// TestCheckpointRoundWaitsForEveryLiveWorker drives the master by hand
// through a blocks_to_list and a list_to_blocks round of three workers
// under Recover, in which worker 1 reports and is then evicted, worker 2
// reports, and worker 3 reports last.  A round asks every live worker for
// its report, so the dead reporter must not stand in for worker 3: nothing
// closes before 3 has reported, then the round closes once and releases
// every live worker.  A save holds the partition of every report it
// received — 1's included, as a collective sums a dead reporter's
// contribution; a load deals each live worker the blocks it homes.
func TestCheckpointRoundWaitsForEveryLiveWorker(t *testing.T) {
	const src = `
sial ckpt_round
param n = 6
aoindex I = 1, n
aoindex J = 1, n
distributed D(I,J)
blocks_to_list D
list_to_blocks D
endsial
`
	prog, err := compiler.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []int{syncSave, syncLoad} {
		t.Run(map[int]string{syncSave: "save", syncLoad: "load"}[kind], func(t *testing.T) {
			cfg := Config{Workers: 3, Recover: true, Seg: bytecode.DefaultSegConfig(2), ScratchDir: t.TempDir()}
			rt, err := newRuntime(prog, cfg, nil, batch(cfg))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.close()
			m := newMaster(rt)
			arr := prog.ArrayID("D")
			// Every block holds its ordinal; parts is each home's partition.
			var all []ArrayBlock
			parts := map[int][]ArrayBlock{}
			for ord := 0; ord < rt.layout.Shapes[arr].NumBlocks(); ord++ {
				ab := ArrayBlock{Ord: ord, Data: []float64{float64(ord)}}
				all = append(all, ab)
				parts[rt.ranks.home(arr, ord)] = append(parts[rt.ranks.home(arr, ord)], ab)
			}
			ords := func(blocks []ArrayBlock) string {
				var o []int
				for _, ab := range blocks {
					if len(ab.Data) != 1 || ab.Data[0] != float64(ab.Ord) {
						t.Errorf("block %d carries %v", ab.Ord, ab.Data)
					}
					o = append(o, ab.Ord)
				}
				sort.Ints(o)
				return fmt.Sprint(o)
			}
			for wr := 1; wr <= 3; wr++ {
				if len(parts[wr]) == 0 {
					t.Fatalf("worker %d homes no block of D; the drill is vacuous", wr)
				}
			}
			if kind == syncLoad {
				if err := writeIntegrityFile(m.ckptPath(arr), ckptFileMagic, wire.Encode(ckptData{arr: arr, blocks: all})); err != nil {
					t.Fatal(err)
				}
			}
			// report plays one turn of the master's main loop around wr's
			// report and returns the releases it left in the mailboxes.
			report := func(wr int) map[int]syncReply {
				t.Helper()
				msg := syncMsg{round: 4, kind: kind, id: arr}
				if kind == syncSave {
					msg.blocks = parts[wr]
				}
				m.handleSync(wr, msg)
				m.noteEvictions(nil)
				if err := m.completeSyncRounds(nil, nil); err != nil {
					t.Fatal(err)
				}
				released := map[int]syncReply{}
				for wr := 1; wr <= 3; wr++ {
					if rt.world.IsEvicted(wr) {
						continue // its mailbox died with it
					}
					c := rt.world.Comm(wr)
					if msg, ok := c.TryRecv(0, rt.tag(tagSyncRep)); ok {
						released[wr] = msg.Data.(syncReply)
						if _, again := c.TryRecv(0, rt.tag(tagSyncRep)); again {
							t.Errorf("worker %d was released twice", wr)
						}
					}
				}
				return released
			}

			if rel := report(1); len(rel) != 0 {
				t.Fatalf("released %v after one report of three", rel)
			}
			rt.world.Evict(1, "killed after reporting")
			if rel := report(2); len(rel) != 0 {
				t.Fatalf("released %v with live worker 3 outstanding: the dead reporter stood in for it", rel)
			}
			if _, err := m.readCkptFile(arr); kind == syncSave && err == nil {
				t.Fatal("the checkpoint was written before worker 3 reported")
			}
			rel := report(3)
			if len(rel) != 2 || len(m.syncs) != 0 {
				t.Fatalf("released %+v with %d rounds still open, want workers 2 and 3 and none", rel, len(m.syncs))
			}
			for wr := 2; wr <= 3; wr++ {
				if rel[wr].round != 4 || rel[wr].resume || rel[wr].err != "" {
					t.Errorf("worker %d got %+v, want a clean release from round 4", wr, rel[wr])
				}
				if got, want := ords(rel[wr].blocks), ords(parts[wr]); kind == syncLoad && got != want {
					t.Errorf("worker %d was dealt blocks %s, want its partition %s", wr, got, want)
				}
			}
			homed, err := m.readCkptFile(arr)
			if err != nil {
				t.Fatal(err)
			}
			for wr := 1; wr <= 3; wr++ {
				if got, want := ords(homed[wr]), ords(parts[wr]); got != want {
					t.Errorf("the file holds blocks %s of worker %d's partition, want %s", got, wr, want)
				}
			}
		})
	}
}
