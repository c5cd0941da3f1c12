module D = F_unused_def

let () =
  ignore (F_unused_def.used 1);
  ignore (module F_unused_def : F_unused_def.S);
  ignore (D.Nested.aliased 2)
