"""Scenario grids as the benchmark generates them, rendered in the three
forms that reach the program: `ja batch` grid-config text, a served
`batch_request` grid object, and the traced replay's spec."""

LAMINATED_50HZ = {"area": 0.0001, "path": 0.1, "frequency": 50, "lamination": "silicon-steel"}


def num(value):
    """Number text that `ja`'s config parser and JSON parser both read back
    as the same f64 (so scenario keys agree across the three forms)."""
    return str(value) if isinstance(value, int) else repr(value)


def grid(materials, backends, dh_max, excitations, temperatures=(), geometry=None):
    return {
        "materials": list(materials),
        "backends": list(backends),
        "dh_max": list(dh_max),
        "excitations": list(excitations),
        "temperatures": list(temperatures),
        "geometry": geometry,
    }


def major(peak, step, cycles):
    return {"kind": "major", "peak": peak, "step": step, "cycles": cycles}


def biased(bias, amplitude, cycles, step):
    return {"kind": "biased", "bias": bias, "amplitude": amplitude, "cycles": cycles, "step": step}


def circuit(source, amplitude, frequency, t_end, control, duty=None, dt=None):
    spec = {"kind": "circuit", "source": source, "amplitude": amplitude, "frequency": frequency}
    if duty is not None:
        spec["duty"] = duty
    spec.update({"r": 1, "turns": 200, "area": 0.0001, "path": 0.1, "t_end": t_end})
    if dt is not None:
        spec["dt"] = dt
    spec["control"] = control
    return spec


def _params(spec):
    return " ".join(f"{key}={value if isinstance(value, str) else num(value)}"
                    for key, value in spec.items() if key != "kind")


def conf_text(g):
    """The grid as a `ja batch --config` file."""
    lines = [f"material = {m}" for m in g["materials"]]
    lines += [f"backend = {b}" for b in g["backends"]]
    lines += [f"dh_max = {num(d)}" for d in g["dh_max"]]
    lines += [f"excitation = {e['kind']} {_params(e)}" for e in g["excitations"]]
    if g["temperatures"]:
        lines.append("temperature = " + ":".join(num(t) for t in g["temperatures"]))
    if g["geometry"]:
        lines.append(f"geometry = {_params(g['geometry'])}")
    return "\n".join(lines) + "\n"


def request_grid(g):
    """The grid as the `grid` object of a served `batch_request`."""
    doc = {
        "material": g["materials"],
        "backend": g["backends"],
        "dh_max": g["dh_max"],
        "excitation": g["excitations"],
    }
    if g["temperatures"]:
        doc["temperature"] = g["temperatures"]
    if g["geometry"]:
        doc["geometry"] = g["geometry"]
    return doc
