(* Machine-readable emitters: a compact JSON report for local tooling
   (msp_lint --format json) and SARIF 2.1.0 for CI artifact upload.  Both
   are hand-rolled — the repo deliberately has no JSON dependency — and
   escape strings per RFC 8259. *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = "\"" ^ escape s ^ "\""

let arr items = "[" ^ String.concat "," items ^ "]"

let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields)
  ^ "}"

let finding_json (f : Lint_rules.finding) =
  obj
    [
      ("file", str f.file);
      ("line", string_of_int f.line);
      ("col", string_of_int f.col);
      ("rule", str f.rule);
      ("severity", str (Lint_rules.severity_name f.severity));
      ("message", str f.message);
    ]

let json ~findings ~errors ~files_checked =
  obj
    [
      ("tool", str "msp_lint");
      ("schema_version", "2");
      ("files_checked", string_of_int files_checked);
      ("findings", arr (List.map finding_json findings));
      ("errors", arr (List.map str errors));
    ]
  ^ "\n"

(* --- SARIF 2.1.0 ------------------------------------------------------ *)

let sarif_level = function
  | Lint_rules.Error -> "error"
  | Lint_rules.Warning -> "warning"

let sarif_rule (r : Lint_rules.rule) =
  obj
    [
      ("id", str r.id);
      ("shortDescription", obj [ ("text", str r.summary) ]);
      ("fullDescription", obj [ ("text", str r.explain) ]);
      ( "defaultConfiguration",
        obj [ ("level", str (sarif_level r.severity)) ] );
    ]

let sarif_result (f : Lint_rules.finding) =
  obj
    [
      ("ruleId", str f.rule);
      ("level", str (sarif_level f.severity));
      ("message", obj [ ("text", str f.message) ]);
      ( "locations",
        arr
          [
            obj
              [
                ( "physicalLocation",
                  obj
                    [
                      ( "artifactLocation",
                        obj
                          [
                            ("uri", str f.file);
                            ("uriBaseId", str "SRCROOT");
                          ] );
                      ( "region",
                        obj
                          [
                            ("startLine", string_of_int f.line);
                            (* SARIF columns are 1-based. *)
                            ("startColumn", string_of_int (f.col + 1));
                          ] );
                    ] );
              ];
          ] );
    ]

let sarif ~findings ~errors =
  let notifications =
    List.map
      (fun e ->
        obj
          [
            ("level", str "error");
            ("message", obj [ ("text", str e) ]);
          ])
      errors
  in
  obj
    [
      ("$schema", str "https://json.schemastore.org/sarif-2.1.0.json");
      ("version", str "2.1.0");
      ( "runs",
        arr
          [
            obj
              [
                ( "tool",
                  obj
                    [
                      ( "driver",
                        obj
                          [
                            ("name", str "msp_lint");
                            ( "informationUri",
                              str "docs/analysis.md" );
                            ( "rules",
                              arr (List.map sarif_rule Lint_rules.rules) );
                          ] );
                    ] );
                ("results", arr (List.map sarif_result findings));
                ( "invocations",
                  arr
                    [
                      obj
                        [
                          ( "executionSuccessful",
                            if errors = [] then "true" else "false" );
                          ( "toolExecutionNotifications",
                            arr notifications );
                        ];
                    ] );
              ];
          ] );
    ]
  ^ "\n"
