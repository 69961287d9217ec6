(* qxm_audit — independent offline auditor for QXMCERT1 certificates.

   Reads certificate files produced by `qxmap map --certificate` (or the
   daemon's certificate store), re-derives the SAT encoding from the
   bundled circuit/device/strategy, and statically re-validates the
   whole optimality claim: model, objective recount, DRUP proof replay
   with backward trimming, decomposition, coupling compliance and
   unitary equivalence.  Exits 1 if any certificate fails. *)

open Cmdliner
module Auditor = Qxm_audit.Auditor
module Proof = Qxm_sat.Proof
module Diagnostic = Qxm_lint.Diagnostic
module Sjson = Qxm_json.Sjson

let files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"CERT.json" ~doc:"Certificate files to audit.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Print one JSON object per certificate on stdout (file, ok, \
           diagnostics, core statistics) instead of compiler-style \
           lines.")

let max_steps_arg =
  Arg.(
    value
    & opt int Proof.default_max_steps
    & info [ "max-steps" ] ~docv:"N"
        ~doc:"Unit-propagation step budget for the proof replay.")

let equiv_arg =
  Arg.(
    value
    & opt int 10
    & info [ "equiv-max-qubits" ] ~docv:"N"
        ~doc:
          "Largest instance (in qubits) to verify by full unitary \
           simulation; bigger ones report QA-I102 instead.")

let core_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "core" ] ~docv:"OUT.drup"
        ~doc:
          "Write the trimmed proof core of the last audited certificate \
           in textual DRUP format.")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let json_report path (r : Auditor.report) =
  Sjson.Obj
    [
      ("file", Sjson.Str path);
      ("ok", Sjson.Bool r.ok);
      ("diagnostics", Sjson.List (List.map Diagnostic.to_json r.diagnostics));
      ( "core",
        match r.core with
        | None -> Sjson.Null
        | Some c ->
            Sjson.Obj
              [
                ("core_inputs", Sjson.int c.Proof.core_inputs);
                ("total_inputs", Sjson.int c.Proof.total_inputs);
                ("core_steps", Sjson.int c.Proof.core_steps);
                ("total_steps", Sjson.int c.Proof.total_steps);
              ] );
    ]

let run files json max_steps equiv_max_qubits core_out =
  let failed = ref 0 in
  let last_core = ref None in
  List.iter
    (fun path ->
      let r =
        Auditor.audit_string ~max_steps ~equiv_max_qubits (read_file path)
      in
      if r.Auditor.core <> None then last_core := r.Auditor.core;
      if not r.Auditor.ok then incr failed;
      if json then print_endline (Sjson.print (json_report path r))
      else begin
        List.iter
          (fun d -> Printf.printf "%s: %s\n" path (Diagnostic.to_string d))
          r.Auditor.diagnostics;
        Printf.printf "%s: %s\n" path
          (if r.Auditor.ok then "certificate OK" else "certificate REJECTED")
      end)
    files;
  (match (core_out, !last_core) with
  | Some path, Some c ->
      let oc = open_out path in
      output_string oc (Proof.to_drup c.Proof.trimmed);
      close_out oc
  | Some path, None ->
      Printf.eprintf "%s: no proof core available to write\n" path
  | None, _ -> ());
  if !failed > 0 then begin
    Printf.eprintf "audit: %d of %d certificate(s) rejected\n" !failed
      (List.length files);
    exit 1
  end

let () =
  let info =
    Cmd.info "qxm_audit" ~version:"1.0.0"
      ~doc:
        "Re-validate QXMCERT1 optimality certificates offline: re-derive \
         the encoding, recount the objective, replay the DRUP proof, and \
         re-check the mapped circuit."
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const run $ files_arg $ json_arg $ max_steps_arg $ equiv_arg
            $ core_arg)))
