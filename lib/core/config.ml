type t = {
  d_factor : float;
  move_limit : float;
  delta : float;
  variant : Variant.t;
}

let make ?(d_factor = 1.0) ?(move_limit = 1.0) ?(delta = 0.0)
    ?(variant = Variant.Move_first) () =
  if not (Float.is_finite d_factor && Float.is_finite move_limit
          && Float.is_finite delta) then
    invalid_arg "Config.make: non-finite parameter";
  if d_factor < 1.0 then invalid_arg "Config.make: D must be >= 1";
  if move_limit <= 0.0 then invalid_arg "Config.make: m must be positive";
  if delta < 0.0 then invalid_arg "Config.make: delta must be >= 0";
  { d_factor; move_limit; delta; variant }

let online_limit c = (1.0 +. c.delta) *. c.move_limit

let budget_slack = 1e-9

let offline_limit c = c.move_limit

let pp ppf c =
  Format.fprintf ppf "{D=%g; m=%g; delta=%g; %a}" c.d_factor c.move_limit
    c.delta Variant.pp c.variant
