//! The shared front end of the collective CLIs: `order_sweep`,
//! `trace_report`, `congestion_report` and `trace_diff`.
//!
//! It holds what the four binaries have in common: the flag loop
//! ([`parse_flags`]), one parser per shared flag ([`Setup::flag`] for
//! `--machine`, `--nodes`, `--nics`, `--rail-policy`, `--collective`,
//! `--order`, `--subcomm` and `--bytes`; [`Args::count`] for `--threads`),
//! the machine → [`NetworkModel`] rule ([`network`], [`shaped_network`])
//! and the §4.1 setup of one collective under one order on every
//! subcommunicator at once ([`Setup::one_order`]), run with a congestion
//! probe attached by [`probed_run`].
//!
//! Every rule returns `Err(message)` on bad input. Each binary prints the
//! message and exits with its own code ([`or_exit`]): 1 for `order_sweep`,
//! 2 for the other three. `fig8_rails` also reads its one flag through
//! [`parse_flags`] and [`rail_policy`], and exits 1.

use mre_core::subcomm::{ColorScheme, SubcommLayout};
use mre_core::{Hierarchy, Permutation};
use mre_simnet::presets::{hydra_network, lumi_network};
use mre_simnet::{
    bound_gap_fluid, bound_gap_lockstep, BoundGap, CongestionProbe, FluidSim, NetworkModel,
    RailPolicy, Schedule,
};
use mre_workloads::microbench::{Collective, Microbench};
use std::fmt::Display;
use std::str::FromStr;

/// Unwraps `result`, or prints its message to stderr and exits with
/// `code`.
pub fn or_exit<T>(result: Result<T, String>, code: i32) -> T {
    result.unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(code)
    })
}

/// Writes `contents` to `path`, or prints why it cannot and exits with 1,
/// every CLI's code for an output file it cannot write.
pub fn write_or_exit(path: &str, contents: impl AsRef<[u8]>) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1)
    })
}

/// The command-line arguments after the program name, consumed one flag
/// (and its value) at a time.
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The value that follows `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value that follows `flag`, parsed by [`number`].
    pub fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        number(flag, &self.value(flag)?)
    }

    /// The value that follows `flag` as an integer ≥ 1 (node, rail and
    /// worker counts).
    pub fn count(&mut self, flag: &str) -> Result<usize, String> {
        let text = self.value(flag)?;
        text.parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad {flag} (need an integer >= 1)"))
    }
}

/// `text`, the value of `flag`, parsed as a `T`.
pub fn number<T: FromStr>(flag: &str, text: &str) -> Result<T, String>
where
    T::Err: Display,
{
    text.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// The flag loop over `args` (program name excluded). Hands every
/// argument to `on_flag(arg, rest)`, which takes the values it needs from
/// `rest` and returns `false` for an argument it does not accept; that
/// argument is then an error. With a `usage` line, `--help` and `-h` print
/// it and exit 0.
pub fn parse_flags(
    args: impl IntoIterator<Item = String>,
    usage: Option<&str>,
    mut on_flag: impl FnMut(&str, &mut Args) -> Result<bool, String>,
) -> Result<(), String> {
    let mut args = Args(args.into_iter().collect::<Vec<_>>().into_iter());
    while let Some(arg) = args.0.next() {
        if let Some(usage) = usage.filter(|_| arg == "--help" || arg == "-h") {
            println!("{usage}");
            std::process::exit(0);
        }
        if !on_flag(&arg, &mut args)? {
            let hint = if usage.is_some() { " (try --help)" } else { "" };
            return Err(format!("unknown flag {arg:?}{hint}"));
        }
    }
    Ok(())
}

/// A `--rail-policy` value.
pub fn rail_policy(text: &str) -> Result<RailPolicy, String> {
    RailPolicy::parse(text)
        .ok_or_else(|| format!("bad --rail-policy {text:?} (round-robin|src-hash|affinity)"))
}

/// A collective name, one of [`Collective::NAMES`].
pub fn collective(name: &str) -> Result<Collective, String> {
    Collective::parse(name)
        .ok_or_else(|| format!("unknown collective {name:?} ({})", Collective::NAMES))
}

/// Checks that `subcomm` processes per subcommunicator tile `machine`.
pub fn check_subcomm(machine: &Hierarchy, subcomm: usize) -> Result<(), String> {
    if subcomm == 0 || !machine.size().is_multiple_of(subcomm) {
        return Err(format!(
            "subcommunicator size {subcomm} must divide {}",
            machine.size()
        ));
    }
    Ok(())
}

/// The calibrated network of machine `name` (`hydra` or `lumi`) with
/// `nodes` nodes and `nics` node rails under `policy`; one aggregate node
/// pipe when `nics` is 1.
pub fn network(
    name: &str,
    nodes: usize,
    nics: usize,
    policy: RailPolicy,
) -> Result<NetworkModel, String> {
    let base = match name {
        "hydra" => hydra_network(nodes, 1),
        "lumi" => lumi_network(nodes),
        _ => return Err(format!("unknown machine {name:?} (hydra|lumi)")),
    };
    Ok(if nics > 1 {
        base.with_node_rails(nics, policy)
    } else {
        base
    })
}

/// [`network`] of a machine given by its shape: a Hydra-shaped
/// `nodes,2,2,8` or a LUMI-shaped `nodes,2,4,2,8`.
pub fn shaped_network(
    machine: &Hierarchy,
    nics: usize,
    policy: RailPolicy,
) -> Result<NetworkModel, String> {
    match machine.levels() {
        [nodes, 2, 2, 8] => network("hydra", *nodes, nics, policy),
        [nodes, 2, 4, 2, 8] => network("lumi", *nodes, nics, policy),
        _ => Err(format!(
            "no calibrated network for {machine}; use nodes,2,2,8 (Hydra) or nodes,2,4,2,8 (LUMI)"
        )),
    }
}

/// Runs every subcommunicator's schedule at once with a
/// [`CongestionProbe`] attached, in lockstep rounds or, with `fluid`, on
/// the barrier-free fluid engine. Returns the probe, the makespan and the
/// per-level bound gaps.
pub fn probed_run(
    net: &NetworkModel,
    schedules: &[Schedule],
    fluid: bool,
) -> (CongestionProbe, f64, Vec<BoundGap>) {
    let mut probe = CongestionProbe::new(net);
    let (makespan, gaps) = if fluid {
        let makespan = FluidSim::new(net).run_probed(schedules, &mut probe);
        (makespan, bound_gap_fluid(net, schedules, &probe))
    } else {
        let merged = Schedule::lockstep(schedules);
        let makespan = net.schedule_time_probed(&merged, &mut probe);
        (makespan, bound_gap_lockstep(net, &merged, &probe))
    };
    (probe, makespan, gaps)
}

/// The shared flags of a one-order run: machine, fabric, collective,
/// order and sizes. The default is the 16-node Hydra, one rail, a 4 MiB
/// Alltoall on 16-process subcommunicators under the identity order.
#[derive(Debug, Clone)]
pub struct Setup {
    /// `--machine`: `hydra` or `lumi`.
    pub machine: String,
    /// `--nodes`: compute nodes.
    pub nodes: usize,
    /// `--nics`: node rails.
    pub nics: usize,
    /// `--rail-policy`: how crossing messages pick a rail.
    pub policy: RailPolicy,
    /// `--collective`: one of [`Collective::NAMES`] (checked when the flag
    /// is parsed).
    pub collective: String,
    /// `--order`: the enumeration order; the identity when absent.
    pub order: Option<String>,
    /// `--subcomm`: processes per subcommunicator.
    pub subcomm: usize,
    /// `--bytes`: total bytes of one collective call.
    pub bytes: u64,
}

impl Default for Setup {
    fn default() -> Self {
        Setup {
            machine: "hydra".into(),
            nodes: 16,
            nics: 1,
            policy: RailPolicy::default(),
            collective: "alltoall".into(),
            order: None,
            subcomm: 16,
            bytes: 4 << 20,
        }
    }
}

/// One collective under one order, every subcommunicator at once.
pub struct OneOrder {
    /// The configuration: machine, order, subcommunicator size, collective
    /// and bytes.
    pub bench: Microbench,
    /// The subcommunicators (quotient coloring).
    pub layout: SubcommLayout,
    /// Each subcommunicator's canonical schedule, indexed like the
    /// layout's colors.
    pub schedules: Vec<Schedule>,
    /// `("comm c", members)` per subcommunicator, for trace exports.
    pub groups: Vec<(String, Vec<usize>)>,
}

impl OneOrder {
    /// The report's first line: machine, order, communicators and bytes.
    pub fn header(&self) -> String {
        let Microbench { machine, order, .. } = &self.bench;
        format!(
            "machine {machine} ({} cores), order [{order}], {} comms x {} procs, {} bytes",
            machine.size(),
            self.layout.count(),
            self.bench.subcomm_size,
            self.bench.total_bytes
        )
    }
}

impl Setup {
    /// Reads the value of the shared `flag` from `args`; `Ok(false)` when
    /// `flag` is not one of the shared flags.
    pub fn flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
        match flag {
            "--machine" => self.machine = args.value(flag)?,
            "--nodes" => self.nodes = args.count(flag)?,
            "--nics" => self.nics = args.count(flag)?,
            "--rail-policy" => self.policy = rail_policy(&args.value(flag)?)?,
            "--collective" => {
                let name = args.value(flag)?;
                collective(&name)?;
                self.collective = name;
            }
            "--order" => self.order = Some(args.value(flag)?),
            "--subcomm" => self.subcomm = args.number(flag)?,
            "--bytes" => self.bytes = args.number(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The [`network`] these flags name.
    pub fn network(&self) -> Result<NetworkModel, String> {
        network(&self.machine, self.nodes, self.nics, self.policy)
    }

    /// The §4.1 setup on `net`: the order must have one level per machine
    /// level and the subcommunicator size must divide the machine size.
    /// Schedules are built for `net`'s node rails.
    pub fn one_order(&self, net: &NetworkModel) -> Result<OneOrder, String> {
        let machine = net.hierarchy();
        let order = match &self.order {
            None => Permutation::identity(machine.depth()),
            Some(text) => {
                Permutation::parse(text).map_err(|e| format!("bad --order {text:?}: {e}"))?
            }
        };
        if order.len() != machine.depth() {
            return Err(format!(
                "order has {} levels but {} ({} levels) needs {}",
                order.len(),
                self.machine,
                machine.depth(),
                machine.depth()
            ));
        }
        let collective = collective(&self.collective)?;
        check_subcomm(machine, self.subcomm)?;
        let bench = Microbench {
            machine: machine.clone(),
            order,
            subcomm_size: self.subcomm,
            collective,
            total_bytes: self.bytes,
        };
        let (layout, schedules) = bench
            .layout_schedules(ColorScheme::Quotient, net.node_rails())
            .map_err(|e| format!("cannot build subcommunicators: {e}"))?;
        let schedules = schedules.iter().map(Schedule::canonicalized).collect();
        let groups = (0..layout.count())
            .map(|c| (format!("comm {c}"), layout.members(c).to_vec()))
            .collect();
        Ok(OneOrder {
            bench,
            layout,
            schedules,
            groups,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Setup, String> {
        let mut setup = Setup::default();
        let args = args.iter().map(|a| a.to_string());
        parse_flags(args, None, |flag, rest| setup.flag(flag, rest))?;
        Ok(setup)
    }

    #[test]
    fn shared_flags_parse_and_reject_bad_values() {
        let s = parse(&["--nodes", "4", "--nics", "2", "--rail-policy", "affinity"]).unwrap();
        assert_eq!((s.nodes, s.nics, s.policy), (4, 2, RailPolicy::Affinity));
        assert_eq!(parse(&["--nodes"]).unwrap_err(), "--nodes needs a value");
        assert_eq!(
            parse(&["--nics", "0"]).unwrap_err(),
            "bad --nics (need an integer >= 1)"
        );
        assert!(parse(&["--rail-policy", "bogus"]).is_err());
        assert!(parse(&["--bytes", "-5"]).is_err());
        assert_eq!(
            parse(&["--collective", "bogus"]).unwrap_err(),
            "unknown collective \"bogus\" (alltoall|allreduce|allgather)"
        );
        assert_eq!(parse(&["--flud"]).unwrap_err(), "unknown flag \"--flud\"");
    }

    #[test]
    fn one_order_checks_the_order_and_the_subcommunicator_size() {
        let one = |args: &[&str]| {
            let setup = parse(args).unwrap();
            setup
                .one_order(&setup.network().unwrap())
                .map(|o| o.layout.count())
        };
        assert_eq!(one(&["--nodes", "2"]), Ok(4));
        assert_eq!(
            one(&["--order", "0-1-2"]).unwrap_err(),
            "order has 3 levels but hydra (4 levels) needs 4"
        );
        assert_eq!(
            one(&["--subcomm", "3"]).unwrap_err(),
            "subcommunicator size 3 must divide 512"
        );
    }

    #[test]
    fn named_and_shaped_machines_give_the_same_network() {
        for (name, shape) in [("hydra", "4,2,2,8"), ("lumi", "4,2,4,2,8")] {
            let h = Hierarchy::parse(shape).unwrap();
            for nics in [1, 2] {
                let named = network(name, 4, nics, RailPolicy::Affinity).unwrap();
                let shaped = shaped_network(&h, nics, RailPolicy::Affinity).unwrap();
                assert_eq!(named.fingerprint(), shaped.fingerprint());
                assert_eq!(named.node_rails(), nics);
            }
        }
        assert!(network("bogus", 4, 1, RailPolicy::RoundRobin).is_err());
        assert!(shaped_network(
            &Hierarchy::parse("4,4,4").unwrap(),
            1,
            RailPolicy::RoundRobin
        )
        .is_err());
    }
}
