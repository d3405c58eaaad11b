(* The kma_bench command lines of transcript.expected, run in this
   order.  Each line is split on spaces.  Every Harness.commands entry
   but the host-timed ones needs a line here (the runner checks); a
   line that ends in a usage error says why in its comment. *)

let lines =
  [
    (* The paper's artifacts.  A sweep without the 1- or 25-CPU points
       prints only the Figure 7 verdict lines whose points it has. *)
    "fig7 --cpus 2 --iters 10";
    "fig7 --cpus 1,2 --iters 20 --semilog";
    (* A 25-CPU convoy on mk's and oldkma's one lock: every acquire but
       the first few spins behind a queue deeper than 8. *)
    "fig7 --cpus 25 --iters 20 --allocs mk,oldkma";
    (* A large block that fits still runs. *)
    "fig7 --bytes 1000000 --cpus 1 --iters 10 --allocs cookie";
    "fig7 --bytes 2000000 --cpus 3 --iters 10 --allocs cookie";
    (* 131072 words is the smallest memory tried on which newkma
       completes every size: at 32768 it allocates no block from 256
       bytes up, at 65536 none from 1024 up. *)
    "fig9 --memory-words 131072";
    "fig9 --allocator lazybuddy --memory-words 131072";
    "opcounts";
    "analysis --samples 150 --lockcheck";
    "analysis --samples 40 --lockcheck";
    (* E1 under a dearer memory miss. *)
    "analysis --geometry miss=60 --samples 20";
    "missrates --cpus 2 --transactions 60 --flight-recorder";
    "missrates --cpus 2 --transactions 150 --flight-recorder --lockcheck";
    "missrates --cpus 2 --transactions 200 --heapcheck";
    (* Extensions: the E12 sweep, fig7 on a non-default geometry, E13's
       lock-free arms and E14's NUMA sweep through the flat and per-node
       global layers. *)
    "geometry --cpus 4 --iters 10 --depth 32";
    "fig7 --geometry line=16,lines=128,assoc=4 --cpus 1,4 --iters 200";
    "lockfree --allocs nbbuddy,bwfixed --cpus 1,2 --iters 50 --pairs 1 \
     --blocks 40";
    "numa --cpus 8 --nodes 1,2 --iters 2 --depth 24";
    (* Two jobs over the pressure grid under the heap checker: the domain
       pool, the checker's shard/absorb path and the CLI wiring. *)
    "pressure --jobs 2 --cpus 2 --rounds 6 --batch 40 --rates 0,0.2 \
     --heapcheck";
    "cyclic --days 1";
    "crosscpu --pairs 1 --blocks 100";
    "trace --ops 300";
    "ablation-target";
    "ablation-pagepolicy";
    "fuzz --ops 600 --seed 3";
    "fuzz --ops 1500 --seed 21";
    "fuzz --ops 1500 --seed 22 --pressure --fault-rate 0.3";
    "fuzz --ops 1500 --seed 23 --debug --mode sweep";
    (* The scenario library: every scenario's pathology report at its
       default seed (recorded_dlm's names its replay's cycle count), a
       scaled fan-out replay, and the lock-free arms under the pathology
       detectors, whose probe lines carry their CAS/drain evidence. *)
    "scenarios";
    "scenario steady --report";
    "scenario rpc --report";
    "scenario bursty --report";
    "scenario long_tail --report";
    "scenario producer_consumer --report";
    "scenario frag_adversary --report";
    "scenario recorded_dlm --report";
    "scenario steady --scale 4 --cpus 4";
    "scenario frag_adversary --report --windows 8 --heapcheck";
    (* --heapcheck walks every kmem arm after its replay: one checkpoint
       each for cookie, numakma and newkma. *)
    "scenario steady --allocs cookie,numakma,newkma --heapcheck";
    "scenario steady --scale 2 --cpus 2 --allocs nbbuddy,bwfixed --report";
    (* Usage errors: exit 124 with empty stdout, before any simulation
       runs.  A count outside its range is refused at parse time, never
       an exception from the simulator. *)
    "fig7 --bytes 0";
    "fig9 --memory-words 0";
    "crosscpu --pairs 0";
    (* Values whose bound the simulator used to enforce at run time (an
       escaped Invalid_argument, exit 125): pairs beyond the rings'
       scratch region, memory that is not whole cache lines, and a
       non-positive rate scale. *)
    "crosscpu --pairs 21";
    "lockfree --pairs 21 --cpus 1 --iters 10";
    "fig9 --memory-words 16385";
    "scenario steady --scale 0";
    (* A scenario the library does not have, and a fan-out that is not
       whole copies of the scenario's CPUs (steady runs on 2): both are
       checked when the line is parsed. *)
    "scenario bogus";
    "scenario steady --cpus 3";
    (* An unknown allocator name lists the valid roster, in every flag
       that names allocators. *)
    "scenario steady --allocs no_such_alloc";
    "lockfree --allocs slab";
    "fig7 --allocs nbbuddy,bogus --cpus 1 --iters 10";
    "fig9 --allocator hoard";
    (* A block size some selected arm has no class for (mk serves at
       most a page): 124, not an escaped assertion (125). *)
    "fig7 --bytes 5000 --cpus 1";
    (* A block too large for the machine stops the measured loop with
       an error naming the arm, the size and the CPU count, also 124:
       above the simulated memory, above one vmblk, more than the CPUs'
       bursts can hold at once. *)
    "fig7 --bytes 100000000 --cpus 1 --iters 10 --allocs cookie";
    "fig7 --bytes 3000000 --cpus 1 --iters 10 --allocs cookie";
    "fig7 --bytes 2000000 --cpus 4 --iters 10 --allocs cookie";
    "numa --cpus 32 --nodes 1 --iters 2 --depth 64 --bytes 4096 --allocs \
     newkma";
    "geometry --cpus 8 --iters 2 --depth 2000 --bytes 4096";
    (* A bad geometry spec, and a bad --nodes list. *)
    "fig7 --geometry line=3";
    "numa --geometry nodes=0 --cpus 4 --iters 2";
    "numa --nodes 0,2 --cpus 4 --iters 2";
    (* nodes > ncpus passes the geometry parser (it cannot know ncpus),
       so a command that takes --geometry checks the node count against
       the fewest CPUs among its own flags, and a command that simulates
       a fixed machine against that. *)
    "fig7 --geometry nodes=200000 --cpus 1 --iters 10";
    "fig7 --geometry nodes=2 --cpus 1,4";
    "opcounts --geometry nodes=3";
    "pressure --cpus 2 --geometry nodes=3";
    (* service is natively timed, so only its usage errors have lines:
       an unknown scenario and bad flag values. *)
    "service no_such_scenario";
    "service steady --mode sideways";
    "service steady --domains 0";
    "service steady --arrival sometimes";
  ]
