(* Size draws for qcheck properties.

   [QCheck.int_range a b] shrinks toward 0, past [a].  When a property
   over such a size fails, shrinking feeds the code under test a size
   below its floor, and the report shows that code's [Invalid_argument]
   instead of a minimal counterexample.  [range a b] draws from the same
   interval and shrinks toward [a]. *)

let range a b =
  QCheck.set_print QCheck.Print.int
    (QCheck.map ~rev:(fun n -> n - a) (( + ) a) (QCheck.int_bound (b - a)))
