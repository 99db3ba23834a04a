//! Named front-end inputs → scenarios: the typed [`GridSpec`] every front
//! end fills, and the `ja batch` grid-config format that fills it from
//! text.
//!
//! ```text
//! # Axes accumulate: repeat a key to add a value, the grid is the
//! # cartesian product of all axes (empty axes fall back to defaults).
//! material   = date2006                            # see `ja help batch`
//! backend    = direct                              # direct|systemc|ams|time-domain|all|timeless
//! dh_max     = 10                                  # one model config per value (A/m)
//! excitation = major peak=10000 step=100 cycles=1  # triangular major loop
//! excitation = fig1 step=50                        # paper's Fig. 1 stimulus
//! excitation = biased bias=1000 amplitude=500 cycles=1 step=10
//! excitation = circuit source=sine amplitude=30 frequency=50 r=1 \
//!              turns=200 area=1e-4 path=0.1 t_end=0.04 dt=5e-5 control=fixed
//! excitation = circuit source=pwm amplitude=30 frequency=50 duty=0.25
//! excitation = degauss h_start=10000 h_stop=100 decay=0.5 step=10
//! temperature = -40:25:125                         # operating-point axis (°C)
//! geometry = area=1e-4 path=0.1 frequency=50 lamination=silicon-steel
//! ```
//!
//! (`excitation = circuit` takes its parameters on one line; the backslash
//! continuation above is for readability only.)
//!
//! `temperature` adds operating points (colon-separated list, repeatable);
//! each one resolves the material parameters through its thermal
//! coefficients before simulation.  `geometry` attaches a core geometry —
//! and optionally an electrical frequency and lamination preset — to every
//! operating point so reports carry a `loss` breakdown.
//!
//! `#` starts a comment, blank lines are ignored.  Only axes live in the
//! file; execution knobs (`--workers`, `--fail-fast`) stay on the command
//! line so the same grid can be run under different policies.
//!
//! [`parse_grid`] fills a [`GridSpec`] line by line, `ja serve` fills one
//! from a `batch_request` grid, and the single-scenario front ends fill a
//! one-cell spec ([`GridSpec::cell`]), so every scenario key comes from
//! [`ScenarioGrid`]'s one naming rule and served and offline scenarios
//! match by construction.  Excitation and geometry parameters arrive as
//! `(key, token)` text pairs and one parser reads them, so each number
//! rule exists once (`cycles` is `usize::from_str` on its text).

use std::collections::BTreeMap;

use hdl_models::scenario::{OperatingPoint, Scenario, ScenarioGrid};
use magnetics::geometry::CoreGeometry;
use magnetics::losses::LaminationSpec;

use crate::common::{
    backend_by_name, backend_set_by_name, circuit_excitation, config_lines, material_by_name,
    model_config, CircuitSpecArgs, NamedExcitation,
};
use crate::CliError;

/// A scenario grid under construction from named inputs.  Each axis
/// method looks its value up, validates it and names it as it is added,
/// failing with a usage error that names the value; omitted axes keep
/// [`ScenarioGrid`]'s defaults (`date2006`, the direct backend, the
/// `default` configuration).
#[derive(Default)]
pub(crate) struct GridSpec {
    grid: ScenarioGrid,
    temperatures: Vec<f64>,
    /// The `geometry` operating point every temperature builds on.
    geometry: Option<OperatingPoint>,
}

impl GridSpec {
    /// A one-cell spec for the single-scenario front ends: one material
    /// (default `date2006`), one backend (default `direct`; a set such as
    /// `all` is an error) and always a ΔH_max (default 10 A/m), so their
    /// keys read `dh10` where an omitted grid axis reads `default`.
    pub(crate) fn cell(
        material: Option<&str>,
        backend: Option<&str>,
        dh_max: Option<f64>,
    ) -> Result<Self, CliError> {
        let mut spec = Self::default().material(material.unwrap_or("date2006"))?;
        spec.grid = spec
            .grid
            .backend(backend_by_name(backend.unwrap_or("direct"))?);
        spec.dh_max(dh_max.unwrap_or(10.0))
    }

    /// Adds a material preset together with its thermal coefficients.
    pub(crate) fn material(mut self, name: &str) -> Result<Self, CliError> {
        let (params, thermal) = material_by_name(name)?;
        self.grid = self.grid.material_with_thermal(name, params, thermal);
        Ok(self)
    }

    /// Adds a backend set: `all`, `timeless` or one backend name.
    pub(crate) fn backends(mut self, name: &str) -> Result<Self, CliError> {
        self.grid = self.grid.backends(backend_set_by_name(name)?);
        Ok(self)
    }

    /// Adds one model configuration, named `dh<value>`.
    pub(crate) fn dh_max(mut self, dh_max: f64) -> Result<Self, CliError> {
        let (name, config) = model_config(dh_max)?;
        self.grid = self.grid.config(name, config);
        Ok(self)
    }

    /// Adds an excitation from its kind and `(key, token)` parameters.
    pub(crate) fn excitation<'a>(
        self,
        kind: &str,
        params: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<Self, CliError> {
        Ok(self.named_excitation(parse_excitation(kind, params)?))
    }

    /// Adds an excitation built from command-line flags.
    pub(crate) fn named_excitation(mut self, named: NamedExcitation) -> Self {
        self.grid = self.grid.excitation(named.name, named.excitation);
        self
    }

    /// Adds an operating temperature (°C); each names a `t<°C>` point.
    pub(crate) fn temperature(mut self, t_c: f64) -> Self {
        self.temperatures.push(t_c);
        self
    }

    /// Sets the one core geometry every operating point carries, from
    /// `area`, `path` and optional `frequency` and `lamination` tokens.
    pub(crate) fn geometry<'a>(
        mut self,
        params: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<Self, CliError> {
        if self.geometry.is_some() {
            return Err(CliError::usage("geometry given twice"));
        }
        let mut params = Params::new("geometry", params)?;
        let area = params.required_f64("area")?;
        let path = params.required_f64("path")?;
        let frequency = params.f64("frequency")?;
        let lamination = match params.take("lamination") {
            None => None,
            Some("silicon-steel") => Some(LaminationSpec::silicon_steel_0p35mm()),
            Some(other) => {
                return Err(CliError::usage(format!(
                    "unknown lamination `{other}` (expected silicon-steel)"
                )))
            }
        };
        params.finish("geometry")?;
        let geometry =
            CoreGeometry::new(area, path).map_err(|err| CliError::usage(err.to_string()))?;
        let mut point = OperatingPoint::new().with_geometry(geometry);
        if let Some(frequency) = frequency {
            point = point.with_frequency(frequency);
        }
        if let Some(lamination) = lamination {
            point = point.with_lamination(lamination);
        }
        self.geometry = Some(point);
        Ok(self)
    }

    /// Expands the operating-point axis and returns the grid.
    /// Temperatures name the points (`t-40`, `t125`, …); a geometry with
    /// no temperature axis yields a single `geom` point so losses can be
    /// reported without thermal scaling.
    pub(crate) fn finish(self) -> Result<ScenarioGrid, CliError> {
        let points: Vec<(String, OperatingPoint)> = if self.temperatures.is_empty() {
            self.geometry
                .map(|point| ("geom".to_owned(), point))
                .into_iter()
                .collect()
        } else {
            let base = self.geometry.unwrap_or_default();
            self.temperatures
                .iter()
                .map(|&t_c| (format!("t{t_c}"), base.with_temperature(t_c)))
                .collect()
        };
        let mut grid = self.grid;
        for (name, point) in points {
            point
                .validate()
                .map_err(|err| CliError::usage(err.to_string()))?;
            grid = grid.operating_point(name, point);
        }
        Ok(grid)
    }

    /// The one scenario of a [`cell`](Self::cell) spec with its
    /// excitation added.
    pub(crate) fn single(self) -> Result<Scenario, CliError> {
        let mut scenarios = self
            .finish()?
            .scenarios()
            .map_err(|err| CliError::usage(err.to_string()))?;
        debug_assert_eq!(scenarios.len(), 1, "a cell spec expands to one scenario");
        Ok(scenarios.swap_remove(0))
    }
}

/// Parses grid-config text into a [`ScenarioGrid`].
///
/// # Errors
///
/// Usage error naming the offending line for unknown keys, malformed
/// values, unknown excitation kinds/parameters or invalid `dh_max`.
pub fn parse_grid(text: &str) -> Result<ScenarioGrid, CliError> {
    let mut spec = GridSpec::default();
    for (lineno, line) in config_lines(text) {
        let at = |message: String| CliError::usage(format!("grid config line {lineno}: {message}"));
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| at(format!("expected `key = value`, got `{line}`")))?;
        let (key, value) = (key.trim(), value.trim());
        spec = match key {
            "material" => spec.material(value),
            "backend" => spec.backends(value),
            "dh_max" => match value.parse() {
                Ok(dh_max) => spec.dh_max(dh_max),
                Err(_) => Err(CliError::usage(format!("`{value}` is not a number"))),
            },
            "excitation" => {
                let mut tokens = value.split_whitespace();
                match tokens.next() {
                    None => Err(CliError::usage("empty excitation spec")),
                    Some(kind) => key_values(tokens, "excitation")
                        .and_then(|params| spec.excitation(kind, params)),
                }
            }
            "temperature" => parse_temperatures(value)
                .map(|temperatures| temperatures.into_iter().fold(spec, GridSpec::temperature)),
            "geometry" => key_values(value.split_whitespace(), "geometry")
                .and_then(|params| spec.geometry(params)),
            other => Err(CliError::usage(format!(
                "unknown key `{other}` (expected material | backend | dh_max | excitation \
                 | temperature | geometry)"
            ))),
        }
        .map_err(|err| at(err.message))?;
    }
    spec.finish()
        .map_err(|err| CliError::usage(format!("grid config: {}", err.message)))
}

/// Parses a colon-separated temperature list (`-40:25:125`) into Celsius
/// values.
fn parse_temperatures(value: &str) -> Result<Vec<f64>, CliError> {
    value
        .split(':')
        .map(|token| {
            let token = token.trim();
            token
                .parse::<f64>()
                .map_err(|_| CliError::usage(format!("temperature `{token}` is not a number")))
        })
        .collect()
}

/// Splits a config line's `key=value` tokens into `(key, token)` pairs.
fn key_values<'a>(
    tokens: impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<Vec<(&'a str, &'a str)>, CliError> {
    tokens
        .map(|token| {
            token.split_once('=').ok_or_else(|| {
                CliError::usage(format!("{what} parameter `{token}` is not `key=value`"))
            })
        })
        .collect()
}

/// The `(key, token)` parameters of one excitation or geometry: the one
/// parameter parser behind config lines and request objects.
struct Params<'a> {
    /// `excitation` or `geometry`, for messages.
    what: &'static str,
    tokens: BTreeMap<&'a str, &'a str>,
}

impl<'a> Params<'a> {
    fn new(
        what: &'static str,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<Self, CliError> {
        let mut tokens = BTreeMap::new();
        for (key, value) in pairs {
            if tokens.insert(key, value).is_some() {
                return Err(CliError::usage(format!(
                    "{what} parameter `{key}` given twice"
                )));
            }
        }
        Ok(Self { what, tokens })
    }

    fn take(&mut self, name: &str) -> Option<&'a str> {
        self.tokens.remove(name)
    }

    fn f64(&mut self, name: &str) -> Result<Option<f64>, CliError> {
        let Some(text) = self.take(name) else {
            return Ok(None);
        };
        text.parse::<f64>().map(Some).map_err(|_| {
            CliError::usage(format!(
                "{} parameter `{name}={text}` is not a number",
                self.what
            ))
        })
    }

    fn f64_or(&mut self, name: &str, default: f64) -> Result<f64, CliError> {
        Ok(self.f64(name)?.unwrap_or(default))
    }

    fn required_f64(&mut self, name: &str) -> Result<f64, CliError> {
        self.f64(name)?
            .ok_or_else(|| CliError::usage(format!("{} needs `{name}=`", self.what)))
    }

    /// Cycle counts are whole numbers: parsed as `usize` directly, so
    /// `cycles=1.9` is rejected instead of silently truncated.
    fn cycles(&mut self) -> Result<usize, CliError> {
        match self.take("cycles") {
            None => Ok(1),
            Some(text) => text.parse::<usize>().map_err(|_| {
                CliError::usage(format!(
                    "excitation parameter `cycles={text}` is not an unsigned integer"
                ))
            }),
        }
    }

    /// Rejects any parameter nothing took; `owner` names what was parsed.
    fn finish(self, owner: &str) -> Result<(), CliError> {
        match self.tokens.keys().next() {
            None => Ok(()),
            Some(stray) => Err(CliError::usage(format!(
                "{owner} does not take parameter `{stray}`"
            ))),
        }
    }
}

/// Builds a named excitation from its kind and `(key, token)` parameters,
/// e.g. `major` with `peak=10000 step=100 cycles=1`.
fn parse_excitation<'a>(
    kind: &str,
    params: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<NamedExcitation, CliError> {
    let mut params = Params::new("excitation", params)?;
    let named = match kind {
        "major" => {
            let cycles = params.cycles()?;
            let peak = params.f64_or("peak", 10_000.0)?;
            let step = params.f64_or("step", 10.0)?;
            NamedExcitation::major(peak, step, cycles)?
        }
        "fig1" => NamedExcitation::fig1(params.f64_or("step", 10.0)?)?,
        "biased" => {
            let cycles = params.cycles()?;
            let bias = params.f64_or("bias", 1_000.0)?;
            let amplitude = params.f64_or("amplitude", 500.0)?;
            let step = params.f64_or("step", 10.0)?;
            NamedExcitation::biased(bias, amplitude, cycles, step)?
        }
        "degauss" => {
            let h_start = params.f64_or("h_start", 10_000.0)?;
            let h_stop = params.f64_or("h_stop", 100.0)?;
            let decay = params.f64_or("decay", 0.5)?;
            let step = params.f64_or("step", 10.0)?;
            NamedExcitation::degauss(h_start, h_stop, decay, step)?
        }
        "circuit" => {
            let source = params.take("source");
            let adaptive = match params.take("control").unwrap_or("fixed") {
                "fixed" => false,
                "adaptive" => true,
                other => {
                    return Err(CliError::usage(format!(
                        "excitation parameter `control={other}` must be fixed | adaptive"
                    )))
                }
            };
            // Omitted parameters fall back to the inrush preset inside
            // `circuit_excitation` — the defaults live in exactly one
            // place (`CircuitExcitation::inrush`).
            let args = CircuitSpecArgs {
                source,
                amplitude: params.f64("amplitude")?,
                frequency: params.f64("frequency")?,
                duty: params.f64("duty")?,
                resistance: params.f64("r")?,
                turns: params.f64("turns")?,
                area: params.f64("area")?,
                path: params.f64("path")?,
                t_end: params.f64("t_end")?,
                dt: params.f64("dt")?,
                adaptive,
                rel_tol: params.f64("rel_tol")?,
                abs_tol: params.f64("abs_tol")?,
                max_step: params.f64("max_step")?,
            };
            circuit_excitation(&args, "set control=adaptive")?
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown excitation kind `{other}` \
                 (expected major | fig1 | biased | degauss | circuit)"
            )))
        }
    };
    params.finish(&format!("excitation kind `{kind}`"))?;
    Ok(named)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hdl_models::scenario::Scenario;
    use proptest::collection;
    use proptest::prelude::*;
    use waveform::schedule::MAX_SAMPLES;

    /// Number tokens that stress parsing and schedule sizes.
    const NUMBERS: [&str; 15] = [
        "0",
        "-0",
        "1e-300",
        "1e300",
        "nan",
        "inf",
        "9223372036854775807",
        "1e-12",
        "1",
        "2.5",
        "-40",
        "0.5",
        "50",
        "1000",
        "10000",
    ];
    /// Name tokens: values the lookups know, and some they do not.  The
    /// first four are material values, the next four backend values.
    const WORDS: [&str; 13] = [
        "date2006",
        "hard-steel",
        "ja1984",
        "mu-metal",
        "direct",
        "all",
        "timeless",
        "verilog",
        "sine",
        "pwm",
        "adaptive",
        "maybe",
        "silicon-steel",
    ];
    /// Every grid key, plus a stray one.
    const AXES: [&str; 7] = [
        "material",
        "backend",
        "dh_max",
        "excitation",
        "temperature",
        "geometry",
        "speed",
    ];
    /// Every excitation kind with its parameter names, plus an unknown
    /// kind.
    const KINDS: [(&str, &[&str]); 6] = [
        ("major", &["peak", "step", "cycles"]),
        ("fig1", &["step"]),
        ("biased", &["bias", "amplitude", "cycles", "step"]),
        ("degauss", &["h_start", "h_stop", "decay", "step"]),
        (
            "circuit",
            &[
                "source",
                "amplitude",
                "frequency",
                "duty",
                "r",
                "turns",
                "area",
                "path",
                "t_end",
                "dt",
                "control",
                "rel_tol",
                "abs_tol",
                "max_step",
            ],
        ),
        ("sawtooth", &["step"]),
    ];
    const GEOMETRY: [&str; 4] = ["area", "path", "frequency", "lamination"];

    /// Generated grid lines as vocabulary indices: `(axis, kind,
    /// [(parameter, value)])`.  [`line`] reads one back.
    pub(crate) type Lines = Vec<(usize, usize, Vec<(usize, usize)>)>;

    /// One to three lines, excitation lines the likeliest, of up to three
    /// parameters, numbers the likeliest values.
    pub(crate) fn grid_lines() -> impl Strategy<Value = Lines> {
        collection::vec(
            (
                0usize..AXES.len() + 6,
                0usize..KINDS.len(),
                collection::vec((0usize..20, 0usize..2 * NUMBERS.len() + WORDS.len()), 0..4),
            ),
            1..4,
        )
    }

    /// A generated line's value.
    pub(crate) enum Entry {
        /// `material`, `backend`, `dh_max` or the stray key.
        Token(&'static str),
        /// `temperature` values.
        Tokens(Vec<&'static str>),
        /// An excitation (with its kind) or a geometry (without): named
        /// parameters, where a `None` name is a stray token with no `=`.
        Params(
            Option<&'static str>,
            Vec<(Option<&'static str>, &'static str)>,
        ),
    }

    /// Reads a generated line back as its key and value.
    pub(crate) fn line(
        (axis, kind, params): &(usize, usize, Vec<(usize, usize)>),
    ) -> (&'static str, Entry) {
        let token = |index: usize| match index.checked_sub(2 * NUMBERS.len()) {
            None => NUMBERS[index % NUMBERS.len()],
            Some(word) => WORDS[word],
        };
        let named = |names: &[&'static str]| {
            params
                .iter()
                .map(|&(name, value)| {
                    let name = match name {
                        18 => Some("speed"),
                        19 => None,
                        name => Some(names[name % names.len()]),
                    };
                    (name, token(value))
                })
                .collect()
        };
        let axis = AXES.get(*axis).copied().unwrap_or("excitation");
        let entry = match axis {
            "excitation" => Entry::Params(Some(KINDS[*kind].0), named(KINDS[*kind].1)),
            "geometry" => Entry::Params(None, named(&GEOMETRY)),
            "temperature" => Entry::Tokens(params.iter().map(|&(_, value)| token(value)).collect()),
            "material" => Entry::Token(WORDS[*kind % 4]),
            "backend" => Entry::Token(WORDS[4 + *kind % 4]),
            _ => Entry::Token(token(params.first().map_or(*kind, |&(_, value)| value))),
        };
        (axis, entry)
    }

    /// Renders generated lines as grid-config text.
    fn config_text(lines: &Lines) -> String {
        let mut text = String::new();
        for generated in lines {
            let (axis, entry) = line(generated);
            let value = match entry {
                Entry::Token(token) => token.to_owned(),
                Entry::Tokens(tokens) => tokens.join(":"),
                Entry::Params(kind, params) => kind
                    .into_iter()
                    .map(str::to_owned)
                    .chain(params.iter().map(|(name, token)| match name {
                        Some(name) => format!("{name}={token}"),
                        None => (*token).to_owned(),
                    }))
                    .collect::<Vec<_>>()
                    .join(" "),
            };
            text.push_str(&format!("{axis} = {value}\n"));
        }
        text
    }

    /// Every prescribed excitation stays within the schedule ceiling.
    pub(crate) fn assert_bounded(scenarios: &[Scenario], input: &str) {
        for scenario in scenarios {
            let samples = scenario.excitation.sample_count().unwrap_or(0);
            assert!(samples <= MAX_SAMPLES, "{input}: {samples} samples");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_grid_yields_a_bounded_grid_or_a_usage_error(lines in grid_lines()) {
            let text = config_text(&lines);
            match parse_grid(&text) {
                // Only a grid without an excitation fails to expand.
                Ok(grid) => {
                    if let Ok(scenarios) = grid.scenarios() {
                        assert_bounded(&scenarios, &text);
                    }
                }
                Err(err) => prop_assert_eq!(err.code, 2, "{}: {}", text, err.message),
            }
        }
    }

    #[test]
    fn parses_a_full_grid() {
        let grid = parse_grid(
            "# demo grid\n\
             material = date2006\n\
             material = soft-ferrite   # second material axis value\n\
             backend = timeless\n\
             dh_max = 10\n\
             dh_max = 25\n\
             excitation = major peak=10000 step=200 cycles=1\n\
             excitation = fig1 step=100\n",
        )
        .unwrap();
        // 2 excitations x 3 backends x 2 configs x 2 materials.
        assert_eq!(grid.len(), 24);
        let scenarios = grid.scenarios().unwrap();
        assert!(scenarios[0]
            .name
            .starts_with("major(peak=10000,step=200,cycles=1)/"));
        assert!(scenarios.iter().any(|s| s.name.contains("/dh25/")));
        assert!(scenarios.iter().any(|s| s.name.ends_with("/soft-ferrite")));
    }

    #[test]
    fn axes_fall_back_to_defaults() {
        let grid = parse_grid("excitation = fig1 step=100\n").unwrap();
        assert_eq!(grid.len(), 1);
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(
            scenarios[0].name,
            "fig1(step=100)/direct-timeless/default/date2006"
        );
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        for (text, needle) in [
            ("material\n", "line 1"),
            ("material = mu-metal\n", "unknown material"),
            ("backend = verilog\n", "unknown backend"),
            ("dh_max = fast\n", "not a number"),
            ("dh_max = -1\n", "dh_max"),
            ("speed = 9\n", "unknown key `speed`"),
            ("excitation = sawtooth step=1\n", "unknown excitation kind"),
            ("excitation = major step\n", "not `key=value`"),
            ("excitation = major step=a\n", "not a number"),
            ("excitation = major step=1 step=2\n", "given twice"),
            ("excitation = major cycles=1.9\n", "not an unsigned integer"),
            (
                "excitation = major cycles=1e20\n",
                "not an unsigned integer",
            ),
            ("excitation = fig1 peak=10\n", "does not take parameter"),
            ("\nexcitation = major step=0\n", "line 2"),
        ] {
            let err = parse_grid(text).expect_err(text);
            assert!(err.message.contains(needle), "`{text}` -> {}", err.message);
            assert_eq!(err.code, 2, "{text}");
        }
    }

    #[test]
    fn parses_circuit_excitations() {
        let grid = parse_grid(
            "excitation = circuit source=sine amplitude=30 frequency=50 r=1 \
             turns=200 area=1e-4 path=0.1 t_end=0.04 dt=5e-5 control=fixed\n\
             excitation = circuit control=adaptive rel_tol=0.05\n",
        )
        .unwrap();
        assert_eq!(grid.len(), 2);
        let scenarios = grid.scenarios().unwrap();
        assert!(scenarios[0]
            .name
            .starts_with("circuit(sine(amplitude=30,frequency=50),r=1,turns=200,"));
        assert!(scenarios[0].name.contains("fixed(dt=0.00005)"));
        assert!(scenarios[1].name.contains("adaptive(rel=0.05,abs=0.1,"));

        for (text, needle) in [
            ("excitation = circuit source=square\n", "unknown source"),
            ("excitation = circuit control=maybe\n", "fixed | adaptive"),
            ("excitation = circuit dt=0\n", "dt"),
            ("excitation = circuit r=zero\n", "not a number"),
            ("excitation = circuit rel_tol=0.1\n", "control=adaptive"),
            ("excitation = circuit cycles=2\n", "does not take parameter"),
        ] {
            let err = parse_grid(text).expect_err(text);
            assert!(err.message.contains(needle), "`{text}` -> {}", err.message);
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let grid = parse_grid("\n  # only a comment\nexcitation = fig1 step=250 # tail\n").unwrap();
        assert_eq!(grid.len(), 1);
    }

    #[test]
    fn temperature_axis_expands_into_named_operating_points() {
        let grid = parse_grid(
            "excitation = fig1 step=100\n\
             temperature = -40:25:125\n",
        )
        .unwrap();
        assert_eq!(grid.len(), 3);
        let scenarios = grid.scenarios().unwrap();
        let names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "fig1(step=100)/direct-timeless/default/date2006/t-40",
                "fig1(step=100)/direct-timeless/default/date2006/t25",
                "fig1(step=100)/direct-timeless/default/date2006/t125",
            ]
        );
        assert_eq!(
            scenarios[0].operating_point.unwrap().temperature_c,
            Some(-40.0)
        );
    }

    #[test]
    fn geometry_attaches_loss_inputs_to_every_operating_point() {
        let grid = parse_grid(
            "excitation = fig1 step=100\n\
             temperature = 25\n\
             geometry = area=1e-4 path=0.1 frequency=50 lamination=silicon-steel\n",
        )
        .unwrap();
        let scenarios = grid.scenarios().unwrap();
        assert_eq!(scenarios.len(), 1);
        let op = scenarios[0].operating_point.unwrap();
        assert_eq!(op.temperature_c, Some(25.0));
        assert_eq!(op.frequency_hz, Some(50.0));
        assert!(op.geometry.is_some());
        assert!(op.lamination.is_some());

        // Geometry without a temperature axis still yields one `geom` point.
        let grid = parse_grid(
            "excitation = fig1 step=100\n\
             geometry = area=1e-4 path=0.1 frequency=50\n",
        )
        .unwrap();
        let scenarios = grid.scenarios().unwrap();
        assert!(scenarios[0].name.ends_with("/geom"));
        assert!(scenarios[0]
            .operating_point
            .unwrap()
            .temperature_c
            .is_none());
    }

    #[test]
    fn degauss_and_pwm_lines_parse() {
        let grid = parse_grid(
            "excitation = degauss h_start=10000 h_stop=100 decay=0.5 step=10\n\
             excitation = circuit source=pwm amplitude=30 frequency=50 duty=0.25\n",
        )
        .unwrap();
        let scenarios = grid.scenarios().unwrap();
        assert!(scenarios[0]
            .name
            .starts_with("degauss(h_start=10000,h_stop=100,decay=0.5,step=10)/"));
        assert!(scenarios[1]
            .name
            .starts_with("circuit(pwm(amplitude=30,frequency=50,duty=0.25),"));
    }

    #[test]
    fn malformed_operating_point_lines_are_rejected() {
        for (text, needle) in [
            ("temperature = hot\n", "not a number"),
            ("temperature = nan\n", "temperature"),
            ("geometry = path=0.1\n", "needs `area=`"),
            (
                "geometry = area=1e-4 path=0.1 lamination=mu\n",
                "unknown lamination",
            ),
            (
                "geometry = area=1e-4 path=0.1\ngeometry = area=2e-4 path=0.2\n",
                "given twice",
            ),
            (
                "geometry = area=1e-4 path=0.1 turns=5\n",
                "does not take parameter",
            ),
            (
                "excitation = circuit source=sine duty=0.5\n",
                "duty only applies",
            ),
            ("excitation = circuit source=pwm duty=1.5\n", "duty"),
            ("excitation = degauss h_stop=20000\n", "h_stop"),
        ] {
            let err = parse_grid(text).expect_err(text);
            assert!(err.message.contains(needle), "`{text}` -> {}", err.message);
        }
    }
}
