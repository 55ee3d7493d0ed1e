(* BOX fixtures: bare-float returns and freshly computed float args. *)

let acc = [| 0.0 |]

let calc x = x *. 2.0

let store x = acc.(0) <- x

let ret_box x = calc x

let fresh_arg () = store (calc 1.0)

let passthrough x = store x

let let_arith () = let k = acc.(0) *. 2.0 in store k

let let_read () = let k = acc.(0) in store k
