# Convenience targets; everything is plain dune underneath.

all:
	dune build @all

test:
	dune runtest

# Static analysis (docs/MODEL.md, "Memory discipline" and §12): the
# memory-discipline rules R1–R3 over the algorithm libraries plus the
# domain-sharing rules R4–R6 over the runtime layers (lib/runtime, lib/mem,
# lib/persist, lib/net, lib/txn).  Fails on any
# non-waived finding; the fixture check confirms the rules still fire on
# the intentionally racy files under test/fixtures.
lint:
	dune build @lint
	dune build bin/lint.exe
	mkdir -p $(ARTIFACTS)
	dune exec bin/lint.exe -- --json lib > $(ARTIFACTS)/psnap-lint.json
	dune exec bin/lint.exe -- --ruleset runtime --json test/fixtures \
	  > $(ARTIFACTS)/psnap-lint-fixtures.json; test $$? -eq 1

# Happens-before race checking (docs/MODEL.md §12): run every seeded
# fixture under round-robin + seeded random schedules; racy fixtures must
# race under every schedule and clean ones under none, and each racy
# fixture gets a ddmin-shrunk replayable witness schedule.
race:
	dune build bin/race.exe
	mkdir -p $(ARTIFACTS)
	dune exec bin/race.exe -- --seeds 3 --shrink \
	  --json $(ARTIFACTS)/psnap-race.json

# Regenerate every experiment table (E1..E13 and E16s step counts + E8 wall
# clock; throughput is the loadgen's and perfbench's).
bench:
	dune exec bench/main.exe

examples:
	@for e in quickstart portfolio checkpoint approximate_agreement \
	          aggregate_board readonly_transactions consensus; do \
	  echo "== examples/$$e =="; dune exec examples/$$e.exe; echo; done

# Campaign outputs (JSON metrics, shrunk witness schedules) land in the
# gitignored _artifacts/ directory; CI uploads it wholesale.
ARTIFACTS := _artifacts

# Base seed of the seeded chaos campaigns (chaos-mem, chaos-durable,
# chaos-net, chaos-txn, chaos-reconfig); CI sweeps it per campaign.
SEED ?= 0

# Fault-injection campaign (E14): seeded chaos / crash-storm nemeses over
# Figures 1 and 3 with the observation checker on; each run writes a JSON
# metrics summary (uploaded as a CI artifact).  Budgeted well under 60 s.
chaos:
	dune build bin/simulate.exe
	mkdir -p $(ARTIFACTS)
	dune exec bin/simulate.exe -- --impl fig1 --nemesis chaos --seeds 40 \
	  --check --json $(ARTIFACTS)/chaos-fig1.json
	dune exec bin/simulate.exe -- --impl fig3 --nemesis chaos --seeds 40 \
	  --check --json $(ARTIFACTS)/chaos-fig3.json
	dune exec bin/simulate.exe -- --impl fig3 --nemesis storm --seeds 40 \
	  --check --json $(ARTIFACTS)/chaos-fig3-storm.json
	dune exec bin/simulate.exe -- --impl fig3 --nemesis crash-restart \
	  --seeds 10 --check --json $(ARTIFACTS)/chaos-fig3-cr.json

# Memory-fault campaign (E15, docs/MODEL.md §9): raw Figure 3 must break
# under seeded corruption (the shrunk witness is saved; the committed
# reference witness lives in schedules/), and the same algorithms functored
# over hardened registers must pass the identical storm.
chaos-mem:
	dune build bin/simulate.exe
	mkdir -p $(ARTIFACTS)
	dune exec bin/simulate.exe -- --impl fig3 --mem-faults corrupt \
	  --mem-rate 0.05 --mem-max 12 --seed $(SEED) --seeds 20 \
	  --check --expect-violations --shrink \
	  --replay-file $(ARTIFACTS)/e15-fig3-corrupt-$(SEED).sched \
	  --json $(ARTIFACTS)/chaos-mem-fig3-raw-$(SEED).json
	dune exec bin/simulate.exe -- --impl fig3-hardened --mem-faults corrupt \
	  --mem-rate 0.05 --mem-max 12 --seed $(SEED) --seeds 20 \
	  --check --json $(ARTIFACTS)/chaos-mem-fig3-hardened-$(SEED).json
	dune exec bin/simulate.exe -- --impl fig1-hardened \
	  --mem-faults corrupt,stale,lose --mem-rate 0.03 --mem-max 8 \
	  --seed $(SEED) --seeds 10 \
	  --check --json $(ARTIFACTS)/chaos-mem-fig1-hardened-$(SEED).json

# Serving-layer smoke (E16): drive the flat and sharded Figure 3 through
# the multicore loadgen on 2 domains — sharded with window scans (mostly
# inside one shard) and with random-set scans (cross-shard double
# collects) — and the durable store on 2 write-only domains, whose
# commits take different stripes of the commit lock at once (E18).  Short
# budget, JSON summaries uploaded with the other campaign artifacts.  These runs smoke-test the
# serving path; its steady cost is measured by perfbench/ (BENCHMARK.json).
loadgen-smoke:
	dune build bin/loadgen.exe
	mkdir -p $(ARTIFACTS)
	dune exec bin/loadgen.exe -- --impl fig3 -m 1024 -r 16 --domains 2 \
	  --mix 1u+1s --scan window --duration 500ms --warmup 0.1s --seed 42 \
	  --json $(ARTIFACTS)/loadgen-fig3.json
	dune exec bin/loadgen.exe -- --impl sharded --shards 8 --partition range \
	  -m 1024 -r 16 --domains 2 --mix 1u+1s --scan window --duration 500ms \
	  --warmup 0.1s --seed 42 --json $(ARTIFACTS)/loadgen-sharded.json
	dune exec bin/loadgen.exe -- --impl sharded --shards 8 --partition range \
	  -m 1024 -r 16 --domains 2 --mix 1u+1s --scan random --duration 500ms \
	  --warmup 0.1s --seed 42 --json $(ARTIFACTS)/loadgen-sharded-random.json
	dune exec bin/loadgen.exe -- --impl durable -m 1024 -r 16 --domains 2 \
	  --mix 100:0 --duration 500ms --warmup 0.1s --seed 42 \
	  --json $(ARTIFACTS)/loadgen-durable-writes.json

# Serving campaign (E16/E17, docs/MODEL.md §10–§11): first the plain
# validated sharded front under the chaos and crash-restart nemeses, at
# simulate's defaults (m = 64, r = 8: each scanner's stride-8 set lands
# in one of the 4 round-robin shards, so every scan is a single-shard
# double collect with a fig3 sub-scan fallback) and at -r 6 (stride 10:
# every scan crosses shards and retries its double collect); the target
# fails unless the default runs fell back and the -r 6 runs retried.
# Then the supervised sharded front under combined nemeses, which runs
# the same validated scan code: at the defaults its scans stay in one
# closed shard and take the same double collect with its sub-scan
# fallback (the target fails unless the stuck-epoch, stall and combined
# runs fell back; at their committed seeds they fall back 44, 29 and 33
# times), and at -r 6 its scans cross shards and run the double collect
# under a budget (the target fails unless those runs retried).  Every
# Atomic scan is checked for linearizability; every budget exhaustion
# must surface as Degraded; the stuck-epoch runs must complete at least
# one shard rebuild with validated post-rebuild scans; the loadgen run
# pins tail latency with one circuit forced open.  JSON summaries land in
# _artifacts/ for CI upload.
chaos-runtime:
	dune build bin/simulate.exe bin/loadgen.exe
	mkdir -p $(ARTIFACTS)
	dune exec bin/simulate.exe -- --impl sharded --shards 4 \
	  --nemesis chaos --seeds 10 --check \
	  --json $(ARTIFACTS)/chaos-runtime-sharded.json
	dune exec bin/simulate.exe -- --impl sharded --shards 4 \
	  --nemesis crash-restart --seeds 10 --check \
	  --json $(ARTIFACTS)/chaos-runtime-sharded-cr.json
	dune exec bin/simulate.exe -- --impl sharded --shards 4 -r 6 \
	  --nemesis chaos --seeds 10 --check \
	  --json $(ARTIFACTS)/chaos-runtime-sharded-r6.json
	dune exec bin/simulate.exe -- --impl sharded --shards 4 -r 6 \
	  --nemesis crash-restart --seeds 10 --check \
	  --json $(ARTIFACTS)/chaos-runtime-sharded-cr-r6.json
	python3 -c "import json, sys; \
	  n = lambda f, k: json.load(open('$(ARTIFACTS)/chaos-runtime-' + f + '.json'))[k]; \
	  bad = [f + ': ' + k + ' = 0' for f, k in \
	         [('sharded', 'scan_fallbacks'), ('sharded-cr', 'scan_fallbacks'), \
	          ('sharded-r6', 'scan_retries'), ('sharded-cr-r6', 'scan_retries')] \
	         if n(f, k) == 0]; \
	  sys.exit('; '.join(bad) if bad else 0)"
	dune exec bin/simulate.exe -- --impl resilient --shards 4 \
	  --nemesis chaos --stick-epoch 0 --seeds 10 --check \
	  --json $(ARTIFACTS)/chaos-runtime-stuck-epoch.json
	dune exec bin/simulate.exe -- --impl resilient --shards 4 -r 6 \
	  --nemesis chaos --seeds 10 --check \
	  --json $(ARTIFACTS)/chaos-runtime-resilient-r6.json
	dune exec bin/simulate.exe -- --impl resilient --shards 4 -r 6 \
	  --nemesis chaos --stick-epoch 0 --seeds 10 --check \
	  --json $(ARTIFACTS)/chaos-runtime-stuck-epoch-r6.json
	python3 -c "import json, sys; \
	  bad = [f + ': scan_retries = 0' for f in ('resilient-r6', 'stuck-epoch-r6') \
	         if json.load(open('$(ARTIFACTS)/chaos-runtime-' + f + '.json'))['scan_retries'] == 0]; \
	  sys.exit('; '.join(bad) if bad else 0)"
	dune exec bin/simulate.exe -- --impl resilient --shards 4 \
	  --stall-shard 1 --slow-pid 0 --seed 100 --seeds 10 --check \
	  --json $(ARTIFACTS)/chaos-runtime-stall.json
	dune exec bin/simulate.exe -- --impl resilient --shards 4 \
	  --nemesis chaos --mem-faults corrupt,stale --mem-rate 0.02 \
	  --mem-max 6 --stick-epoch 1 --seed 200 --seeds 10 --check \
	  --json $(ARTIFACTS)/chaos-runtime-combined.json
	python3 -c "import json, sys; \
	  n = {f: json.load(open('$(ARTIFACTS)/chaos-runtime-' + f + '.json'))['scan_fallbacks'] \
	       for f in ('stuck-epoch', 'stall', 'combined')}; \
	  print('resilient scan_fallbacks:', n); \
	  bad = [f + ': scan_fallbacks = 0' for f in n if n[f] == 0]; \
	  sys.exit('; '.join(bad) if bad else 0)"
	dune exec bin/loadgen.exe -- --impl resilient --shards 4 \
	  --partition range -m 1024 -r 16 --domains 2 --mix 1u+1s \
	  --scan window --duration 500ms --warmup 0.1s --seed 42 \
	  --json $(ARTIFACTS)/loadgen-resilient.json
	dune exec bin/loadgen.exe -- --impl resilient --shards 4 \
	  --partition range -m 1024 -r 16 --domains 2 --mix 1u+1s \
	  --scan window --duration 500ms --warmup 0.1s --seed 42 \
	  --open-shard 0 --json $(ARTIFACTS)/loadgen-resilient-open.json

# Durability campaign (E18, docs/MODEL.md §13): the durable Figure 3
# under power-loss fault injection.  The sweep injects a blackout at
# every schedule point and every execution must recover to a durably
# linearizable state; the storm composes seeded blackouts with crash
# storms and checkpoints, and fails if it seals none or if its
# checkpoints discard no log prefix (at seeds 0/300/600 they seal 441
# and discard about 257 kB).  The target fails if
# the sweep or the storm reads any record as corrupt (a power loss only
# tears the log's tail, so a corrupt record is a codec bug), or if the two
# together tear none (some storm seeds, e.g. 600, tear nothing; every
# sweep does).  It also fails unless the storm rebuilt from the log at
# least once and both runs replayed a non-empty update suffix (at seeds
# 0/300/600 the storm recovers 40 times and replays 69-81 updates, the
# sweep 1687-1959), so recovery's fold demonstrably ran under power loss.
# The committed witness schedules/e18-durable-latelog.sched then replays
# both ways on test_campaign's e18 workload: late-log mode must be
# convicted of losing an acknowledged update, and write-ahead mode must be
# clean on the identical schedule.  A replay fixes every decision, so the
# demonstration does not depend on a seed that happens to reach the window
# between an apply and its sync.  The loadgen run prices the WAL against
# plain fig3.
chaos-durable:
	dune build bin/simulate.exe bin/loadgen.exe
	mkdir -p $(ARTIFACTS)
	dune exec bin/simulate.exe -- --impl durable -m 8 -r 4 --updaters 2 \
	  --updates 5 --scanners 1 --scans 3 --power-loss sweep \
	  --seed $(SEED) --seeds 2 \
	  --json $(ARTIFACTS)/chaos-durable-sweep-$(SEED).json
	dune exec bin/simulate.exe -- --impl durable --power-loss storm \
	  --nemesis storm --checkpoint-every 4 \
	  --seed $(SEED) --seeds 20 \
	  --json $(ARTIFACTS)/chaos-durable-storm-$(SEED).json
	python3 -c "import json, sys; \
	  sw, st = (json.load(open('$(ARTIFACTS)/chaos-durable-' + r + '-$(SEED).json')) \
	            for r in ('sweep', 'storm')); \
	  sys.exit('storm run sealed no checkpoint' if st['checkpoints'] == 0 \
	    else 'storm checkpoints discarded no log prefix' \
	      if st['discarded_bytes'] == 0 \
	    else 'a power loss only tears tails: corrupt_records > 0 is a codec bug' \
	      if sw['corrupt_records'] + st['corrupt_records'] > 0 \
	    else 'sweep and storm tore no record: torn tails were never recovered' \
	      if sw['torn_records'] + st['torn_records'] == 0 \
	    else 'storm run recovered nothing: its blackouts were never rebuilt' \
	      if st['recoveries'] == 0 \
	    else 'sweep or storm replayed no update: recovery never ran a suffix' \
	      if min(sw['replayed_updates'], st['replayed_updates']) == 0 else 0)"
	dune exec bin/simulate.exe -- --impl durable -m 4 -r 4 --updaters 1 \
	  --updates 3 --scanners 2 --scans 6 --wal-mode late-log \
	  --expect-violations --replay-file schedules/e18-durable-latelog.sched \
	  --json $(ARTIFACTS)/chaos-durable-latelog-witness.json
	dune exec bin/simulate.exe -- --impl durable -m 4 -r 4 --updaters 1 \
	  --updates 3 --scanners 2 --scans 6 --wal-mode write-ahead \
	  --replay-file schedules/e18-durable-latelog.sched \
	  --json $(ARTIFACTS)/chaos-durable-writeahead-witness.json
	dune exec bin/loadgen.exe -- --impl durable -m 1024 -r 16 --domains 2 \
	  --mix 1u+1s --scan window --duration 500ms --warmup 0.1s --seed 42 \
	  --json $(ARTIFACTS)/loadgen-durable.json

# Message-passing campaign (E19, docs/MODEL.md §14): Figure 3 over ABD
# quorum registers under the network nemeses — partition storms, duplicate
# floods, lag spikes — with the observation checker on, plus a loadgen
# smoke of the replicated service (replica domains over the mutex-guarded
# transport).  The weak-read witness is committed in schedules/ and
# replayed by dune runtest.
chaos-net:
	dune build bin/simulate.exe bin/loadgen.exe
	mkdir -p $(ARTIFACTS)
	dune exec bin/simulate.exe -- --impl fig3 --mem net --replicas 3 \
	  --net-nemesis partition_storm --seed $(SEED) --seeds 3 \
	  --check --json $(ARTIFACTS)/chaos-net-partition-$(SEED).json
	dune exec bin/simulate.exe -- --impl fig3 --mem net --replicas 3 \
	  --net-nemesis dup_flood --net-rate 0.1 --seed $(SEED) \
	  --seeds 3 --check \
	  --json $(ARTIFACTS)/chaos-net-dup-$(SEED).json
	dune exec bin/simulate.exe -- --impl fig3 --mem net --replicas 3 \
	  --net-nemesis lag_spike --net-rate 0.1 --seed $(SEED) \
	  --seeds 3 --check \
	  --json $(ARTIFACTS)/chaos-net-lag-$(SEED).json
	dune exec bin/loadgen.exe -- --impl fig3 --mem net --replicas 3 \
	  -m 64 -r 8 --domains 2 --mix 1u+1s --scan window --duration 500ms \
	  --warmup 0.1s --seed 42 --json $(ARTIFACTS)/loadgen-net.json

# Transaction campaign (E20, docs/MODEL.md §15): the MVCC
# snapshot-isolation layer under chaos / starvation / crash-restart
# nemeses with the SI observation oracle on; the last-writer-wins run
# must violate snapshot isolation (its shrunk witness lands in
# _artifacts/; the committed reference witness lives in schedules/ and
# is replayed by dune runtest); the loadgen run prices a zipf
# read-mostly transaction mix and reports the abort rate.
chaos-txn:
	dune build bin/simulate.exe bin/loadgen.exe
	mkdir -p $(ARTIFACTS)
	dune exec bin/simulate.exe -- --impl txn --nemesis chaos \
	  --seed $(SEED) --seeds 25 --check \
	  --json $(ARTIFACTS)/chaos-txn-fcw-$(SEED).json
	dune exec bin/simulate.exe -- --impl txn --nemesis crash-restart \
	  --seed $(SEED) --seeds 10 --check \
	  --json $(ARTIFACTS)/chaos-txn-cr-$(SEED).json
	dune exec bin/simulate.exe -- --impl txn -m 4 -r 2 --updaters 2 \
	  --updates 3 --scanners 1 --scans 2 --sched random --txn-mode lww \
	  --seed $(SEED) --seeds 50 --check --expect-violations \
	  --shrink \
	  --replay-file $(ARTIFACTS)/e20-txn-lww-$(SEED).sched \
	  --json $(ARTIFACTS)/chaos-txn-lww-$(SEED).json
	dune exec bin/loadgen.exe -- --impl txn -m 64 -r 8 --domains 2 \
	  --dist zipf --mix 10:90 --duration 500ms --warmup 0.1s --seed 42 \
	  --json $(ARTIFACTS)/loadgen-txn.json

# Reconfiguration campaign (E21, docs/MODEL.md §16): the epoch-fenced
# membership protocol under permanent replica deaths, rolling restarts
# and member churn, each composed with a partition storm — zero
# violations tolerated.  The committed witness schedule must convict the
# naive (fence-free) mode of a lost acked write and leave the fenced
# mode clean on the identical schedule; the loadgen run permanently
# kills a majority under load, must land every replacement and must
# return to Atomic service.  Its JSON must say so (recovered, no lost
# write), and its replacements may need at most 2 transfer retries: the
# manager parks for replies, so a retry means a phase heard no quorum
# for its whole wall-time budget (0 retries in 20 of 20 runs when the
# gate was set, EXPERIMENTS.md E21).
chaos-reconfig:
	dune build bin/simulate.exe bin/loadgen.exe
	mkdir -p $(ARTIFACTS)
	dune exec bin/simulate.exe -- --reconfig fenced --replicas 3 --spares 2 \
	  --reconfig-nemesis replica_death --net-nemesis partition_storm \
	  --seed $(SEED) --seeds 3 --check \
	  --json $(ARTIFACTS)/chaos-reconfig-death-$(SEED).json
	dune exec bin/simulate.exe -- --reconfig fenced --replicas 3 --spares 2 \
	  --reconfig-nemesis rolling_restart --net-nemesis partition_storm \
	  --seed $(SEED) --seeds 3 --check \
	  --json $(ARTIFACTS)/chaos-reconfig-rolling-$(SEED).json
	dune exec bin/simulate.exe -- --reconfig fenced --replicas 3 --spares 2 \
	  --reconfig-nemesis config_churn --net-nemesis partition_storm \
	  --seed $(SEED) --seeds 3 --check \
	  --json $(ARTIFACTS)/chaos-reconfig-churn-$(SEED).json
	dune exec bin/simulate.exe -- --reconfig naive --updaters 1 --updates 20 \
	  --scanners 2 --scans 3 --replicas 3 --spares 2 --sched starve --check \
	  --expect-violations --replay-file schedules/e21-reconfig-naive.sched \
	  --json $(ARTIFACTS)/chaos-reconfig-naive-witness.json
	dune exec bin/simulate.exe -- --reconfig fenced --updaters 1 --updates 20 \
	  --scanners 2 --scans 3 --replicas 3 --spares 2 --sched starve --check \
	  --replay-file schedules/e21-reconfig-naive.sched \
	  --json $(ARTIFACTS)/chaos-reconfig-fenced-witness.json
	dune exec bin/loadgen.exe -- --reconfig-under-load --replicas 3 \
	  --spares 2 --domains 2 --duration 1s \
	  --json $(ARTIFACTS)/loadgen-reconfig.json
	python3 -c "import json, sys; \
	  r = json.load(open('$(ARTIFACTS)/loadgen-reconfig.json')); \
	  sys.exit('reconfigure-under-load did not recover' \
	      if r['recovered'] is not True \
	    else 'reconfigure-under-load lost an acked write' \
	      if r['lost_writes'] is not False \
	    else 'replacements took %d transfer retries, over 2' \
	      % r['transfer_retries'] if r['transfer_retries'] > 2 else 0)"

# Every chaos campaign back to back, consolidated into one summary: each
# campaign's JSON artifacts are embedded under their basename so a single
# file answers "did anything break tonight, and under which nemesis".
# Each artifact is parsed, so an empty or truncated one fails the target
# instead of yielding an invalid summary.
chaos-all: chaos chaos-mem chaos-runtime chaos-durable chaos-net chaos-txn chaos-reconfig
	python3 -c "import glob, json, os; \
	  fs = sorted(f for f in glob.glob('$(ARTIFACTS)/chaos-*.json') \
	              + glob.glob('$(ARTIFACTS)/loadgen-reconfig.json') \
	              if os.path.basename(f) != 'chaos-summary.json'); \
	  s = {os.path.basename(f)[:-len('.json')]: json.load(open(f)) for f in fs}; \
	  json.dump(s, open('$(ARTIFACTS)/chaos-summary.json', 'w'), indent=2)"
	@echo "consolidated summary: $(ARTIFACTS)/chaos-summary.json"

clean:
	dune clean
	rm -rf $(ARTIFACTS)

.PHONY: all test lint race bench chaos chaos-mem chaos-runtime chaos-durable chaos-net chaos-txn chaos-reconfig chaos-all loadgen-smoke examples clean
