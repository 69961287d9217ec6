(* Independent checks of one mapping answer: coupling compliance
   (Certify.compliance), the reported F against the circuit itself, and
   unitary equivalence with the input (Equiv.check).

   Answers from the service carry only the mapped QASM, not the initial
   and final layouts, so the layouts are recovered here: a correct answer
   satisfies U_mapped = P_final (U_input ⊗ I) P_init†, i.e.
   U_mapped[π_f r][π_i c] = U_input[r][c] for the basis permutations π
   induced by the qubit layouts.  Column 0 is fixed by every π, which
   pins the final layout first; the pair found is then handed to
   Equiv.check, so the verdict is the library's own. *)

module Circuit = Qxm_circuit.Circuit
module Unitary = Qxm_circuit.Unitary

let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x ->
          List.map (fun p -> x :: p)
            (permutations (List.filter (fun y -> y <> x) xs)))
        xs

(* Basis index b ↦ the index whose bit sigma.(q) is bit q of b. *)
let basis_image m sigma =
  Array.init (1 lsl m) (fun b ->
      let y = ref 0 in
      for q = 0 to m - 1 do
        if b land (1 lsl q) <> 0 then y := !y lor (1 lsl sigma.(q))
      done;
      !y)

let close (a : Complex.t) (b : Complex.t) =
  Float.abs (a.re -. b.re) <= 1e-7 && Float.abs (a.im -. b.im) <= 1e-7

let find_layouts ~original ~elementary =
  let m = Circuit.num_qubits elementary in
  let d = 1 lsl m in
  let u_m = Unitary.unitary elementary in
  let u_o = Unitary.unitary (Circuit.create m (Circuit.gates original)) in
  let perms =
    List.map
      (fun p ->
        let sigma = Array.of_list p in
        (sigma, basis_image m sigma))
      (permutations (List.init m Fun.id))
  in
  let matches ~rows ~cols =
    let ok = ref true and r = ref 0 in
    while !ok && !r < d do
      let c = ref 0 in
      while !ok && !c < Array.length cols do
        ok := close u_m.(rows.(!r)).(fst cols.(!c)) u_o.(!r).(snd cols.(!c));
        incr c
      done;
      incr r
    done;
    !ok
  in
  let all_cols img = Array.init d (fun c -> (img.(c), c)) in
  List.find_map
    (fun (final, f_img) ->
      if not (matches ~rows:f_img ~cols:[| (0, 0) |]) then None
      else
        List.find_map
          (fun (init, i_img) ->
            if matches ~rows:f_img ~cols:(all_cols i_img) then
              Some (init, final)
            else None)
          perms)
    perms

let answer ~arch ~original ~elementary ~f_cost =
  let ( let* ) = Result.bind in
  let* () = Qxm_exact.Certify.compliance ~arch elementary in
  let* () =
    let added = Circuit.length elementary - Circuit.original_cost original in
    if added = f_cost then Ok ()
    else Error (Printf.sprintf "reported F=%d but the circuit adds %d gates" f_cost added)
  in
  match find_layouts ~original ~elementary with
  | None -> Error "no layout makes the answer equivalent to its input"
  | Some (init_full, final_full) -> (
      match
        Qxm_circuit.Equiv.check
          ~allowed:(Qxm_arch.Coupling.allows arch)
          ~original ~mapped:elementary ~init_full ~final_full ()
      with
      | Some true -> Ok ()
      | Some false -> Error "Equiv.check rejected the recovered layouts"
      | None -> Error "device too large for the equivalence check")
