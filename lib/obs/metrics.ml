(* All cells are atomics so any domain can update them without locks;
   the registry table itself is only touched under [lock] at
   registration, snapshot and reset time. *)

type counter = int Atomic.t
type gauge = float Atomic.t

let nbuckets = 32

type histogram = int Atomic.t array (* log2 buckets *)

type cell = C of counter | G of gauge | H of histogram

let lock = Mutex.create ()
let table : (string, cell) Hashtbl.t = Hashtbl.create 64

let register name make same =
  Mutex.lock lock;
  let cell =
    match Hashtbl.find_opt table name with
    | Some c -> c
    | None ->
        let c = make () in
        Hashtbl.add table name c;
        c
  in
  Mutex.unlock lock;
  match same cell with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S is already registered as another kind"
           name)

let counter name =
  register name
    (fun () -> C (Atomic.make 0))
    (function C c -> Some c | _ -> None)

let add c n = ignore (Atomic.fetch_and_add c n)
let incr c = add c 1

let gauge name =
  register name
    (fun () -> G (Atomic.make 0.0))
    (function G g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g v

let rec max_gauge g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then max_gauge g v

let histogram name =
  register name
    (fun () -> H (Array.init nbuckets (fun _ -> Atomic.make 0)))
    (function H h -> Some h | _ -> None)

(* bucket 0: v <= 0; bucket k >= 1: 2^(k-1) <= v < 2^k *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      b := !b + 1;
      v := !v lsr 1
    done;
    min !b (nbuckets - 1)
  end

let observe h v = ignore (Atomic.fetch_and_add h.(bucket_of v) 1)

type value = Count of int | Level of float | Buckets of int array

type snapshot = (string * value) list

let snapshot () =
  Mutex.lock lock;
  let entries =
    Hashtbl.fold
      (fun name cell acc ->
        let v =
          match cell with
          | C c -> Count (Atomic.get c)
          | G g -> Level (Atomic.get g)
          | H h -> Buckets (Array.map Atomic.get h)
        in
        (name, v) :: acc)
      table []
  in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> compare a b) entries

let find snap name = List.assoc_opt name snap

let count snap name =
  match find snap name with Some (Count n) -> n | _ -> 0

(* Walk two name-sorted snapshots in one pass. *)
let combine ~left_only ~right_only ~both a b =
  let rec go a b acc =
    match (a, b) with
    | [], [] -> List.rev acc
    | (n, v) :: rest, [] -> go rest [] (opt acc n (left_only v))
    | [], (n, v) :: rest -> go [] rest (opt acc n (right_only v))
    | (na, va) :: ra, (nb, vb) :: rb ->
        if na < nb then go ra b (opt acc na (left_only va))
        else if nb < na then go a rb (opt acc nb (right_only vb))
        else go ra rb (opt acc na (both va vb))
  and opt acc n = function None -> acc | Some v -> (n, v) :: acc in
  go a b []

let diff later earlier =
  combine
    ~left_only:(fun v -> Some v)
    ~right_only:(fun _ -> None)
    ~both:(fun l e ->
      match (l, e) with
      | Count a, Count b -> Some (Count (max 0 (a - b)))
      | Level a, _ -> Some (Level a)
      | Buckets a, Buckets b ->
          Some (Buckets (Array.mapi (fun i x -> max 0 (x - b.(i))) a))
      | v, _ -> Some v)
    later earlier

let merge a b =
  combine
    ~left_only:(fun v -> Some v)
    ~right_only:(fun v -> Some v)
    ~both:(fun x y ->
      match (x, y) with
      | Count a, Count b -> Some (Count (a + b))
      | Level a, Level b -> Some (Level (Float.max a b))
      | Buckets a, Buckets b ->
          Some (Buckets (Array.mapi (fun i v -> v + b.(i)) a))
      | v, _ -> Some v)
    a b

(* Interpolated quantile from log2 buckets: find the bucket holding the
   q-th observation, then place it linearly inside the bucket's value
   range (bucket 0 covers v <= 0, bucket k >= 1 covers
   [2^(k-1), 2^k)). *)
let quantile_of_buckets b q =
  let total = Array.fold_left ( + ) 0 b in
  if total = 0 then None
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int total in
    let rec find k cum =
      if k >= Array.length b then None
      else
        let cum' = cum + b.(k) in
        if float_of_int cum' >= target && b.(k) > 0 then begin
          if k = 0 then Some 0.0
          else begin
            let lo = float_of_int (1 lsl (k - 1)) in
            let hi = float_of_int (1 lsl k) in
            let frac =
              (target -. float_of_int cum) /. float_of_int b.(k)
            in
            Some (lo +. (Float.max 0.0 frac *. (hi -. lo)))
          end
        end
        else find (k + 1) cum'
    in
    find 0 0
  end

let quantile snap name q =
  match find snap name with
  | Some (Buckets b) -> quantile_of_buckets b q
  | _ -> None

let render_text snap =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, value) ->
      match value with
      | Count c -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name c)
      | Level l -> Buffer.add_string buf (Printf.sprintf "%s %g\n" name l)
      | Buckets b ->
          let total = Array.fold_left ( + ) 0 b in
          let q p =
            match quantile_of_buckets b p with
            | Some v -> Printf.sprintf "%g" v
            | None -> "-"
          in
          Buffer.add_string buf
            (Printf.sprintf "%s n=%d p50=%s p90=%s p99=%s\n" name total
               (q 0.5) (q 0.9) (q 0.99)))
    snap;
  Buffer.contents buf

let reset () =
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ cell ->
      match cell with
      | C c -> Atomic.set c 0
      | G g -> Atomic.set g 0.0
      | H h -> Array.iter (fun a -> Atomic.set a 0) h)
    table;
  Mutex.unlock lock
