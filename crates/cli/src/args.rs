//! Typed command-line tables and their parser (no external dependencies).
//!
//! Each flag is declared once as a [`Flag`]: its name, the [`Kind`] of
//! value it takes (which carries its default) and a help line. Flags
//! compose into shared [`Group`]s, and a [`Command`] (one verb, or one mode
//! of a verb) lists its own flags and groups. [`Cli::run`] checks argv
//! against the one command it selects: an unknown, repeated or foreign
//! flag, a stray word, two modes at once, or a value its kind rejects is a
//! [`Failure::Usage`]. Bodies then read typed values with [`Args::get`],
//! and [`Cli::usage`] renders the help text from the same tables.

use std::marker::PhantomData;

/// Why a command failed, which decides the exit code: `Usage` for a
/// command line or option value the program cannot take (exit 2), `Run`
/// for everything else (exit 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// Rejected command line or option value.
    Usage(String),
    /// Any other failure.
    Run(String),
}

impl Failure {
    /// Process exit code for this failure.
    pub fn exit_code(&self) -> i32 {
        match self {
            Self::Usage(_) => 2,
            Self::Run(_) => 1,
        }
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Self::Run(message)
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Usage(m) | Self::Run(m) => f.write_str(m),
        }
    }
}

fn usage(message: String) -> Failure {
    Failure::Usage(message)
}

/// The value a flag takes, and its default where it has one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A bare switch: given or not.
    Switch,
    /// Any unsigned integer, by default the one given.
    Int(u64),
    /// An integer of at least 1, by default the one given.
    Count(u64),
    /// An integer without a default.
    OptInt,
    /// An integer of at least 1 without a default.
    OptCount,
    /// One of the words; the first is the default.
    Choice(&'static [&'static str]),
    /// A path to write.
    Path,
    /// Comma-separated integers, each at least 1, by default the ones
    /// given.
    List(&'static str),
}

impl Kind {
    /// Parses and range-checks the value `raw` given to `--name`.
    fn parse(self, name: &str, raw: &str) -> Result<Value, Failure> {
        let int = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| usage(format!("--{name}: '{s}' is not an integer")))
        };
        let count = |s: &str| match int(s)? {
            0 => Err(usage(format!("--{name} must be at least 1"))),
            n => Ok(n),
        };
        match self {
            Self::Switch => Err(usage(format!("--{name} takes no value"))),
            Self::Int(_) | Self::OptInt => int(raw).map(Value::Int),
            Self::Count(_) | Self::OptCount => count(raw).map(Value::Int),
            Self::Choice(words) => match words.iter().find(|w| **w == raw) {
                Some(word) => Ok(Value::Word(word)),
                None => {
                    let words = words.join(", ");
                    Err(usage(format!("--{name}: '{raw}' is not one of {words}")))
                }
            },
            Self::Path if raw.is_empty() => Err(usage(format!("--{name} needs a path"))),
            Self::Path => Ok(Value::Text(raw.to_string())),
            Self::List(_) => {
                let items = raw.split(',').map(|s| count(s.trim()));
                items.collect::<Result<_, _>>().map(Value::List)
            }
        }
    }

    /// The value of a flag that was not given, if any.
    fn default(self) -> Option<Value> {
        match self {
            Self::Int(n) | Self::Count(n) => Some(Value::Int(n)),
            Self::Choice([word, ..]) => Some(Value::Word(word)),
            Self::List(d) => self.parse("", d).ok(),
            _ => None,
        }
    }

    /// One bit per group of kinds a [`Read`] type can hold.
    const fn bit(self) -> u8 {
        match self {
            Self::Switch => 1,
            Self::Int(_) | Self::Count(_) => 2,
            Self::OptInt => 4,
            Self::OptCount => 8,
            Self::Choice(_) => 16,
            Self::Path => 32,
            Self::List(_) => 64,
        }
    }
}

/// One flag's declaration, as the tables hold it: name without the
/// leading `--`, kind and one-line help.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub help: &'static str,
}

/// A declared flag whose value command bodies read as a `T`.
pub struct Flag<T> {
    /// The declaration the tables and the parser use.
    pub spec: Spec,
    read: PhantomData<fn() -> T>,
}

/// Declares `--name`. A `T` that cannot hold the values of `kind` fails the
/// build, so a body cannot read a flag as the wrong type.
pub const fn flag<T: Read>(name: &'static str, kind: Kind, help: &'static str) -> Flag<T> {
    assert!(T::KINDS & kind.bit() != 0, "type does not fit the kind");
    let (spec, read) = (Spec { name, kind, help }, PhantomData);
    Flag { spec, read }
}

/// A parsed value: a given switch, an integer, a choice, a path or a list.
#[derive(Debug, Clone)]
pub enum Value {
    On,
    Int(u64),
    Word(&'static str),
    Text(String),
    List(Vec<u64>),
}

/// A type a [`Flag`] reads as: the kinds it holds, and how it reads a value
/// (`None` if the flag was not given and has no default).
pub trait Read: Sized {
    /// [`Kind`] bits of the kinds it holds.
    const KINDS: u8;
    /// Converts the value.
    fn read(value: Option<&Value>) -> Self;
}

/// `read!(T, kinds, pattern => value, fallback)`: `T` holds `kinds` and
/// reads the value that matches `pattern`, and `fallback` when none does.
macro_rules! read {
    ($t:ty, $kinds:expr, $p:pat => $v:expr, $none:expr) => {
        impl Read for $t {
            const KINDS: u8 = $kinds;
            fn read(value: Option<&Value>) -> Self {
                match value {
                    Some($p) => $v,
                    _ => $none,
                }
            }
        }
    };
}
read!(bool, 1, _ => true, false);
// An integer without a default reads as a `u64` only where it selects its
// command's mode, so it is always given.
read!(u64, 2 | 8, Value::Int(n) => *n, 0);
read!(Option<u64>, 4 | 8, Value::Int(n) => Some(*n), None);
read!(&'static str, 16, Value::Word(w) => w, "");
read!(Option<String>, 32, Value::Text(t) => Some(t.clone()), None);
read!(Vec<u64>, 64, Value::List(l) => l.clone(), Vec::new());

/// Flags several commands share, under the title of their usage section.
#[derive(Debug, Clone, Copy)]
pub struct Group(pub &'static str, pub &'static [Spec]);

/// One verb, or one mode of a verb, and the only flags it accepts: its own
/// and its groups'. `mode` is `""` for a verb with one mode, else the word
/// (`steady`) or the flag (`--diff`) that selects it; a verb's first mode
/// is its default. `operand` names the one positional operand the command
/// requires, or is `""`. `run` is its body.
pub struct Command {
    pub verb: &'static str,
    pub mode: &'static str,
    pub operand: &'static str,
    pub about: &'static str,
    pub flags: &'static [Spec],
    pub groups: &'static [Group],
    pub run: fn(&Args) -> Result<String, Failure>,
}

impl Command {
    fn label(&self) -> String {
        format!("{} {}", self.verb, self.mode)
            .trim_end()
            .to_string()
    }

    /// Checks `argv` (the words after the verb and a positional mode)
    /// against this command's flags, once.
    pub fn parse(&self, argv: &[String]) -> Result<Args, Failure> {
        let specs = self
            .flags
            .iter()
            .chain(self.groups.iter().flat_map(|g| g.1));
        let (mut args, label) = (Args::default(), self.label());
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            let Some(flag) = word.strip_prefix("--") else {
                if args.operand.is_some() || self.operand.is_empty() {
                    return Err(usage(format!(
                        "unexpected argument '{word}' to `vecmem {label}`"
                    )));
                }
                args.operand = Some(word.clone());
                continue;
            };
            let (name, inline) = flag
                .split_once('=')
                .map_or((flag, None), |(n, v)| (n, Some(v)));
            let Some(spec) = specs.clone().find(|s| s.name == name) else {
                return Err(usage(format!(
                    "--{name} is not an option of `vecmem {label}`"
                )));
            };
            if args.values.iter().any(|(n, _)| *n == name) {
                return Err(usage(format!("--{name} is given twice")));
            }
            let value = match (spec.kind, inline) {
                (Kind::Switch, None) => Value::On,
                (kind, Some(raw)) => kind.parse(name, raw)?,
                (kind, None) => match words.next() {
                    Some(raw) if !raw.starts_with("--") => kind.parse(name, raw)?,
                    _ => return Err(usage(format!("--{name} needs a value"))),
                },
            };
            args.values.push((spec.name, value));
        }
        if args.operand.is_none() && !self.operand.is_empty() {
            return Err(usage(format!("usage: vecmem {label} {}", self.operand)));
        }
        Ok(args)
    }
}

/// A command line checked against one command: the flags given, by name.
#[derive(Debug, Default)]
pub struct Args {
    values: Vec<(&'static str, Value)>,
    operand: Option<String>,
}

impl Args {
    /// The value of `flag` as its declared type: the value given, or else
    /// its default.
    pub fn get<T: Read>(&self, flag: &Flag<T>) -> T {
        let given = self.values.iter().find(|(n, _)| *n == flag.spec.name);
        let value = given.map(|(_, v)| v.clone());
        T::read(value.or_else(|| flag.spec.kind.default()).as_ref())
    }

    /// The positional operand, if the command takes one.
    pub fn operand(&self) -> &str {
        self.operand.as_deref().unwrap_or_default()
    }
}

/// The whole command line: every command in usage order, and example
/// invocations without the leading `vecmem`.
pub struct Cli {
    pub commands: &'static [Command],
    pub examples: &'static [&'static str],
}

impl Cli {
    /// Selects the command `argv` names, by its verb and the mode word or
    /// flag given (else the verb's first mode), and checks the rest
    /// against it.
    pub fn parse(&self, argv: &[String]) -> Result<(&Command, Args), Failure> {
        let (verb, rest) = argv
            .split_first()
            .map_or(("", argv), |(v, r)| (v.as_str(), r));
        let modes: Vec<&Command> = self.commands.iter().filter(|c| c.verb == verb).collect();
        let selects = |c: &&&Command| match c.mode {
            "" => false,
            flag if flag.starts_with("--") => {
                rest.iter().any(|w| w.split('=').next() == Some(flag))
            }
            word => rest.first().is_some_and(|w| w == word),
        };
        let command = match modes.iter().filter(selects).collect::<Vec<_>>()[..] {
            [] => *modes
                .first()
                .ok_or_else(|| usage(format!("unknown command '{verb}'")))?,
            [c] => *c,
            [a, b, ..] => {
                let (a, b) = (a.mode, b.mode);
                return Err(usage(format!(
                    "{a} and {b} are two modes of `vecmem {verb}`"
                )));
            }
        };
        let rest = match rest.split_first() {
            Some((word, tail)) if *word == command.mode && !word.starts_with("--") => tail,
            _ => rest,
        };
        Ok((command, command.parse(rest)?))
    }

    /// Runs the command `argv` names; `help` prints the usage text.
    pub fn run(&self, argv: &[String]) -> Result<String, Failure> {
        if let [word] = argv {
            if ["help", "--help", "-h"].contains(&word.as_str()) {
                return Ok(self.usage());
            }
        }
        let (command, args) = self.parse(argv)?;
        (command.run)(&args)
    }

    /// The usage text, rendered from the tables.
    pub fn usage(&self) -> String {
        let line = |s: &Spec| {
            let value = match s.kind {
                Kind::Switch => String::new(),
                Kind::Choice(words) => format!(" {}", words.join("|")),
                Kind::Path => " PATH".into(),
                Kind::List(_) => " N,N".into(),
                _ => " N".into(),
            };
            let default = match s.kind {
                Kind::Int(n) | Kind::Count(n) => format!(" (default {n})"),
                Kind::Choice([word, ..]) => format!(" (default {word})"),
                Kind::List(list) => format!(" (default {list})"),
                _ => String::new(),
            };
            let flag = format!("--{}{value}", s.name);
            format!("    {flag:<22} {}{default}\n", s.help)
        };
        let mut out = String::from(
            "vecmem — effective bandwidth of interleaved memories in vector processors\n\n\
             USAGE: vecmem <COMMAND> [MODE] [OPTIONS]\n\n\
             COMMANDS (a verb's first mode is its default):\n",
        );
        for c in self.commands {
            let form = format!("{} {}", c.label(), c.operand);
            out.push_str(&format!("  {:<22} {}\n", form.trim_end(), c.about));
            c.flags.iter().for_each(|s| out.push_str(&line(s)));
            if !c.groups.is_empty() {
                let titles: Vec<&str> = c.groups.iter().map(|g| g.0).collect();
                out.push_str(&format!("    and the {} options\n", titles.join(", ")));
            }
        }
        let mut shown = Vec::new();
        for Group(title, flags) in self.commands.iter().flat_map(|c| c.groups) {
            if !shown.contains(title) {
                shown.push(title);
                out.push_str(&format!("\n{} OPTIONS:\n", title.to_uppercase()));
                flags.iter().for_each(|s| out.push_str(&line(s)));
            }
        }
        out.push_str("\nEXAMPLES:\n");
        for example in self.examples {
            out.push_str(&format!("  vecmem {example}\n"));
        }
        out
    }
}
