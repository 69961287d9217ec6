(* Tests of the benchmark's own helpers: the tail-percentile choice, the
   daemon-mix generator and the answer check. *)

module Circuit = Qxm_circuit.Circuit
module Gate = Qxm_circuit.Gate
open Perfbench

let failures = ref 0

let test name f =
  match f () with
  | () -> Printf.printf "ok   %s\n" name
  | exception e ->
      incr failures;
      Printf.printf "FAIL %s: %s\n" name (Printexc.to_string e)

let () =
  test "tail percentile: known sample counts" (fun () ->
      List.iter
        (fun (n, want) -> assert (Pstats.tail_permille n = want))
        [
          (19, None); (20, Some 500); (39, Some 500); (40, Some 750);
          (99, Some 750); (100, Some 900); (150, Some 900); (199, Some 900);
          (200, Some 950); (1000, Some 990); (9999, Some 990);
          (10000, Some 999);
        ]);
  test "tail percentile: highest with at least 10 samples beyond" (fun () ->
      for n = 1 to 3000 do
        let beyond pm = n - Pstats.rank ~permille:pm n in
        match Pstats.tail_permille n with
        | None -> assert (List.for_all (fun pm -> beyond pm < 10) Pstats.ladder_permille)
        | Some pm ->
            assert (beyond pm >= 10);
            assert (
              List.for_all (fun h -> h <= pm || beyond h < 10) Pstats.ladder_permille);
            let xs = List.init n float in
            (* exactly [beyond pm] samples lie above the reported value *)
            let v = Pstats.percentile ~permille:pm (List.rev xs) in
            assert (List.length (List.filter (fun x -> x > v) xs) = beyond pm)
      done);
  test "median" (fun () ->
      assert (Pstats.median [ 3.; 1.; 2. ] = 2.);
      assert (Pstats.median [ 4.; 1.; 3.; 2. ] = 2.5));
  let same a b =
    a.Mix.requests = b.Mix.requests
    && Array.for_all2 Circuit.equal a.Mix.circuits b.Mix.circuits
  in
  test "daemon-mix: a pure function of its seed" (fun () ->
      List.iter
        (fun seed -> assert (same (Mix.generate ~seed) (Mix.generate ~seed)))
        [ 0; 1; 7; 42 ];
      assert (not (same (Mix.generate ~seed:1) (Mix.generate ~seed:2))));
  test "daemon-mix: seeds change the order, not the work" (fun () ->
      let a = Mix.generate ~seed:1 and b = Mix.generate ~seed:2 in
      assert (Array.for_all2 Circuit.equal a.circuits b.circuits);
      let counts m =
        let c = Array.make Mix.distinct 0 in
        Array.iter (fun r -> c.(r.Mix.circuit) <- c.(r.Mix.circuit) + 1) m.Mix.requests;
        c
      in
      assert (counts a = counts b);
      let misses m =
        List.filter_map
          (fun r -> if r.Mix.hit then None else Some r.Mix.circuit)
          (Array.to_list m.Mix.requests)
      in
      List.iter (fun m -> assert (misses m = List.init Mix.distinct Fun.id)) [ a; b ]);
  test "daemon-mix: hit flags follow an LRU of the daemon's size" (fun () ->
      assert (Mix.capacity = Qxm_svc.Daemon.default_config.cache_mem);
      let keys = [| "a"; "b"; "a"; "c" |] in
      assert (Mix.lru_hits keys = [| false; false; true; false |]));
  let arch = Qxm_arch.Devices.qx4 in
  let circuit =
    Circuit.create 4
      [ Gate.Cnot (0, 1); Gate.Single (Gate.H, 2); Gate.Cnot (2, 3); Gate.Cnot (3, 0); Gate.Cnot (1, 3) ]
  in
  let sabre = Qxm_heuristic.Sabre.run ~arch circuit in
  test "check: accepts a correct mapping" (fun () ->
      assert (
        Check.answer ~arch ~original:circuit ~elementary:sabre.elementary
          ~f_cost:sabre.f_cost
        = Ok ()));
  test "check: rejects a wrong F and a wrong circuit" (fun () ->
      assert (
        Result.is_error
          (Check.answer ~arch ~original:circuit ~elementary:sabre.elementary
             ~f_cost:(sabre.f_cost + 1)));
      let swapped =
        Circuit.create (Circuit.num_qubits sabre.elementary)
          (List.rev (Circuit.gates sabre.elementary))
      in
      assert (
        Result.is_error
          (Check.answer ~arch ~original:circuit ~elementary:swapped
             ~f_cost:sabre.f_cost)));
  if !failures > 0 then exit 1
