#!/usr/bin/env bash
# Prints the design-size numbers ROADMAP's quality-of-design aim tracks,
# one per line, so every CI log carries them and a PR can quote its
# before/after row: non-test lines of internal/sip and internal/mpi (wc -l,
# comments and blanks included), the lines of the worker's data-movement
# and sync layer, internal/sip/worker.go, and its Send(0, sites, the
# messages a worker sends its master (3 is the aim: a failure report, a
# chunk request and a sync report, whose end round is the completion;
# each home answers the master's shutdown to the sender, not to rank 0),
# and the lines of the interpreter core,
# internal/sip/core*.go, with the number of its imports of internal/mpi
# (the core knows no messages: 0 is the aim); the number of lines in non-test
# internal/sip that branch on a mode (cfg.Recover, .pooled, a job-0
# special case, a Replicas fork — the last two over lines that are not
# comment-only) or read rt.cfg.RecvTimeout; the world-abort sites of
# non-test internal/sip, its world.Fail and world.Poison calls (two is the
# aim: await's verdict on a silent rank, ruled in runtime.rule, and an I/O
# server's own death — every other failure is reported to the job's
# master and winds the job down); the lines that name a
# collection protocol beside the sync round (tagCkpt, ckptMsg) and the
# os.Rename sites anywhere in internal/ (one atomic write is the aim:
# internal/atomicfile); the fields of sip.Config
# and sip.PoolConfig, and the settable values that describe one run
# (sip.Config plus a sip.JobSpec, where one exists); the cond.Wait()
# sites of the mpi mailbox; and the places in non-test internal/sip that
# answer a membership question without the one membership value,
# internal/sip/ranks.go: calls of the count-based NewRanks, a launcher's
# constructor, and walks over the old rank-list fields; the distinct tags
# non-test internal/sip sends an ackMsg on (one is the aim: tagAck) and its
# timed receives outside internal/sip/await.go (0 is the aim: every
# bounded receive of a run is await's); the lines of non-test
# internal/ that name a where-clause tree type or op (0 is the aim: a
# where clause is scalar code), the non-test lines of internal/bytecode,
# internal/compiler and internal/sip together, and the block.New sites of
# non-test internal/sip and internal/chem (every other block comes from
# the one allocator, block.Get; the two left are the I/O server's, a block
# absent from its cache in ioServer.fetch and one read back from its spill
# file in decodeBlockFile), and the lines of non-test internal/sip that name
# a [][]int (0 is the aim: a pardo chunk, the chunk ledger, a replay order
# and a snapshot overlay are spans of the iteration space, not lists of
# iteration tuples); in non-test internal/mpi, the sync.Mutex fields
# (3 at most is the aim: the world's memberMu, the failure diagnosis's
# lock if it is not folded into memberMu, and the mailbox's) and the
# per-rank map fields (0 is the aim: membership, liveness and the clock
# sample live in one record per rank; the map Evicted returns is built
# per call and is not a field); the sender fields of the SIP message
# payloads, the origin field lines of internal/sip/messages.go (0 is the
# aim: a receiver reads the sender from the envelope, mpi.Message.Source,
# which delivery has bounded by the world's size); and the fields of
# serve.Config (fewer is the aim: a value no caller sets is a constant,
# not a knob).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
nontest() { find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 | sort -z | xargs -0 cat; }
echo "internal/sip non-test lines:  $(nontest internal/sip | wc -l)"
echo "internal/mpi non-test lines:  $(nontest internal/mpi | wc -l)"
echo "internal/sip/worker.go lines: $(wc -l < internal/sip/worker.go)"
echo "worker sends to the master:   $(grep -c 'Send(0,' internal/sip/worker.go || true)"
core=$(find internal/sip -maxdepth 1 -name 'core*.go' ! -name '*_test.go' | sort)
echo "interpreter core lines:       $(cat $core | wc -l)"
echo "core imports of internal/mpi: $(cat $core | grep -c '"repro/internal/mpi"' || true)"
echo "cfg.Recover guard sites:      $(nontest internal/sip | grep -c 'cfg\.Recover' || true)"
echo ".pooled guard sites:          $(nontest internal/sip | grep -c '\.pooled' || true)"
code() { nontest "$1" | grep -v '^\s*//'; }
echo "job-0 special-case sites:     $(code internal/sip | grep -cE 'job != 0|job == 0|job > 0' || true)"
echo "Replicas fork sites:          $(code internal/sip | grep -cE 'Replicas > 1|Replicas <= 1' || true)"
echo "cfg.RecvTimeout read sites:   $(code internal/sip | grep -c 'rt\.cfg\.RecvTimeout' || true)"
echo "world-abort sites:            $(code internal/sip | grep -cE 'world\.(Fail|Poison)\(' || true)"
echo "collectives outside sync:     $(nontest internal/sip | grep -c 'tagCkpt\|ckptMsg' || true)"
echo "atomic-write sites:           $(find internal -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | grep -c 'os\.Rename(' || true)"
fields() { sed -n "/^type $1 struct {/,/^}/p" "$2" | grep -cE '^\s+[A-Z][A-Za-z]*\s+\S' || true; }
echo "Config fields:                $(fields Config internal/sip/sip.go)"
echo "PoolConfig fields:            $(fields PoolConfig internal/sip/pool.go)"
echo "run-description fields (Config + JobSpec): $(($(fields Config internal/sip/sip.go) + $(fields JobSpec internal/sip/pool.go)))"
echo "mailbox wait loops:           $(grep -c 'cond\.Wait()' internal/mpi/mpi.go || true)"
echo "count-based role sites:       $(nontest internal/sip | grep -v '^func NewRanks(' | grep -c 'NewRanks(' || true)"
walks=$(find internal/sip -maxdepth 1 -name '*.go' ! -name '*_test.go' ! -name 'ranks.go' -print0 | sort -z | xargs -0 cat |
	grep -cE 'range (m\.)?(rt|p)\.(workerList|serverList|workers|spareList)\b' || true)
echo "rank-list walks outside the membership file: $walks"
echo "ack tags:                     $(nontest internal/sip | grep -oE 'tag[A-Za-z]+\), ackMsg\{\}' | sort -u | wc -l)"
timed=$(find internal/sip -maxdepth 1 -name '*.go' ! -name '*_test.go' ! -name 'await.go' -print0 | sort -z | xargs -0 cat |
	grep -c 'RecvRangeUntil(' || true)
echo "timed receives outside await: $timed"
where=$(find internal -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat |
	grep -cE '\bWhere(Expr|Cond|Op|Lit|Index|Param|Add|Sub|Mul|Div)\b' || true)
echo "where-tree references:        $where"
echo "bytecode + compiler + sip non-test lines: $(( $(nontest internal/bytecode | wc -l) + $(nontest internal/compiler | wc -l) + $(nontest internal/sip | wc -l) ))"
echo "block.New sites in non-test internal/sip + internal/chem: $( (nontest internal/sip; nontest internal/chem) | grep -c 'block\.New(' || true)"
echo "[][]int sites in non-test internal/sip: $(nontest internal/sip | grep -c '\[\]\[\]int' || true)"
echo "sync.Mutex fields in internal/mpi: $(nontest internal/mpi | grep -cE '^\s+\w+\s+sync\.Mutex\b' || true)"
echo "per-rank maps in internal/mpi:     $(nontest internal/mpi | grep -cE '^\s+\w+\s+map\[int\]' || true)"
echo "sender fields in sip message payloads: $(grep -cE '^\s+origin\s+int' internal/sip/messages.go || true)"
echo "serve.Config fields:          $(fields Config internal/serve/service.go)"
