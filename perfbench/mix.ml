(* The daemon-mix request stream: a pure function of the seed.

   A fixed pool of small random circuits (3 and 4 qubits) is requested
   with Zipf-like popularity: circuit i appears [popularity i] times.
   Circuits enter the stream in index order, most popular first; each
   step either introduces the next circuit or repeats one already
   introduced, chosen at random in proportion to what is left.

   The seed draws those choices: where the repeats fall, which requests
   hit the cache and which entries are evicted.  It does not change the
   solver's work.  The stream is drawn until a simulated LRU cache of
   the daemon's capacity sees exactly [distinct] misses, so every seed
   solves circuits 0, 1, ..., distinct - 1 once each, in that order.
   (Relabelling the circuits' qubits by seed instead moved wall time by
   12% and the heap peak by 31% across five seeds on a 2-vCPU host: the
   miss latencies are heavy-tailed.)  The simulation also tells which
   requests must come back as cache hits; the benchmark checks the
   daemon against it. *)

module Circuit = Qxm_circuit.Circuit

let distinct = 150
let capacity = 128

let popularity i = max 1 (80 / (i + 1))

let base i =
  Qxm_benchmarks.Generator.random_circuit ~seed:(1 + i)
    ~qubits:(if i mod 3 = 0 then 4 else 3)
    ~cnots:8 ~singles:6

type request = { id : string; circuit : int; qasm : string; hit : bool }
type t = { circuits : Circuit.t array; requests : request array }

(* One stream: circuits in index order, repeats at random. *)
let draw rng =
  let total = List.fold_left ( + ) 0 (List.init distinct popularity) in
  let pending = Array.make total 0 and npending = ref 0 and next = ref 0 in
  Array.init total (fun _ ->
      let fresh = distinct - !next in
      if fresh > 0 && Random.State.int rng (fresh + !npending) < fresh then begin
        let i = !next in
        incr next;
        for _ = 2 to popularity i do
          pending.(!npending) <- i;
          incr npending
        done;
        i
      end
      else begin
        let j = Random.State.int rng !npending in
        let i = pending.(j) in
        decr npending;
        pending.(j) <- pending.(!npending);
        i
      end)

(* Hit flags of an LRU cache of [capacity] entries over [keys]. *)
let lru_hits keys =
  let last_use = Hashtbl.create 256 in
  Array.mapi
    (fun tick key ->
      let hit = Hashtbl.mem last_use key in
      Hashtbl.replace last_use key tick;
      if Hashtbl.length last_use > capacity then begin
        let victim, _ =
          Hashtbl.fold
            (fun k t (vk, vt) -> if t < vt then (k, t) else (vk, vt))
            last_use ("", max_int)
        in
        Hashtbl.remove last_use victim
      end;
      hit)
    keys

let generate ~seed =
  let rng = Random.State.make [| seed; 0x3c1e |] in
  let circuits = Array.init distinct base in
  let qasm = Array.map Qxm_circuit.Qasm.to_string circuits in
  let rec attempt tries =
    if tries = 0 then failwith "Mix.generate: no stream without a repeated miss";
    let order = draw rng in
    let hits = lru_hits (Array.map (fun i -> qasm.(i)) order) in
    if Array.fold_left (fun n h -> if h then n else n + 1) 0 hits = distinct
    then (order, hits)
    else attempt (tries - 1)
  in
  let order, hits = attempt 100_000 in
  {
    circuits;
    requests =
      Array.mapi
        (fun k i ->
          { id = Printf.sprintf "r%03d" k; circuit = i; qasm = qasm.(i); hit = hits.(k) })
        order;
  }
