//! The few-line subcommands — `gen`, `info`, `bounds` and `wal-dump` —
//! and the tree and label resolvers every subcommand shares.

use rand::SeedableRng;
use tree_aa::{EngineKind, NowakRybickiConfig, TreeAaConfig};
use tree_model::{generate, parse_tree, Tree, VertexId};

use crate::{io, Opts, Subcommand};

/// `gen`: emit a generated tree (optionally as DOT).
#[derive(Clone, Debug, PartialEq)]
pub struct Gen {
    /// Family name (path, star, binary, caterpillar, spider, broom,
    /// random).
    pub family: String,
    /// Target size parameter.
    pub size: usize,
    /// Emit Graphviz DOT instead of the text format.
    pub dot: bool,
    /// Seed for the random family.
    pub seed: u64,
}

impl Subcommand for Gen {
    const FLAGS: &'static [&'static str] = &["dot"];
    const HELP: &'static str = "
  treeaa gen    --family <path|star|binary|caterpillar|spider|broom|random>
                --size <K> [--seed <S>] [--dot]
";

    fn parse(o: &mut Opts) -> Result<Self, String> {
        Ok(Gen {
            family: o.req("family")?,
            size: o.req("size")?,
            dot: o.flag("dot"),
            seed: o.or("seed", 0)?,
        })
    }

    fn execute(self, out: &mut impl std::io::Write) -> Result<(), String> {
        let tree = build_family(&self.family, self.size, self.seed)?;
        let text = if self.dot {
            tree.to_dot(&[])
        } else {
            tree.to_text()
        };
        write!(out, "{text}").map_err(io)
    }
}

/// `info`: tree statistics and protocol round counts.
#[derive(Clone, Debug, PartialEq)]
pub struct Info {
    /// Tree spec: `<family><size>` (e.g. `path9`) or a tree file.
    pub tree: String,
}

impl Subcommand for Info {
    const HELP: &'static str = "
  treeaa info   --tree <familyK|file>
";

    fn parse(o: &mut Opts) -> Result<Self, String> {
        Ok(Info {
            tree: o.req("tree")?,
        })
    }

    fn execute(self, out: &mut impl std::io::Write) -> Result<(), String> {
        let tree = build_tree_spec(&self.tree)?;
        let list = tree.euler_list();
        writeln!(out, "vertices        {}", tree.vertex_count()).map_err(io)?;
        writeln!(out, "diameter        {}", tree.diameter()).map_err(io)?;
        writeln!(out, "root            {}", tree.label(tree.root())).map_err(io)?;
        writeln!(out, "euler list len  {}", list.len()).map_err(io)?;
        for (n, t) in [(4usize, 1usize), (7, 2), (10, 3)] {
            let cfg =
                TreeAaConfig::new(n, t, EngineKind::Gradecast, &tree).map_err(|e| e.to_string())?;
            let nr = NowakRybickiConfig::new(n, t, &tree).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "rounds n={n:<2} t={t}: TreeAA {} (phase1 {} + phase2 {}), baseline {}",
                cfg.total_rounds(),
                cfg.phase1_rounds(),
                cfg.phase2_rounds(),
                nr.rounds()
            )
            .map_err(io)?;
        }
        Ok(())
    }
}

/// `bounds`: print lower bounds for the given parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct Bounds {
    /// Input-space diameter.
    pub diameter: f64,
    /// Number of parties.
    pub n: usize,
    /// Corruption bound.
    pub t: usize,
}

impl Subcommand for Bounds {
    const HELP: &'static str = "
  treeaa bounds --diameter <D> --n <N> --t <T>
";

    fn parse(o: &mut Opts) -> Result<Self, String> {
        Ok(Bounds {
            diameter: o.req("diameter")?,
            n: o.req("n")?,
            t: o.req("t")?,
        })
    }

    fn execute(self, out: &mut impl std::io::Write) -> Result<(), String> {
        use lower_bound::{fekete_k, round_lower_bound, theorem2_formula};
        let Bounds { diameter, n, t } = self;
        let exact = round_lower_bound(diameter, n, t);
        writeln!(out, "exact Fekete round lower bound  {exact}").map_err(io)?;
        let closed = theorem2_formula(diameter, n, t);
        writeln!(out, "Theorem 2 closed form           {closed:.2}").map_err(io)?;
        for r in 1..=8u32 {
            writeln!(out, "  K({r}, D) = {:.6}", fekete_k(r, diameter, n, t)).map_err(io)?;
        }
        let real_aa = real_aa::iterations_for(diameter, 1.0) * 3;
        writeln!(out, "RealAA rounds for eps = 1       {real_aa}").map_err(io)
    }
}

/// `wal-dump`: print a node's write-ahead log, one JSON line per
/// record.
#[derive(Clone, Debug, PartialEq)]
pub struct WalDump {
    /// Path to a WAL file.
    pub file: String,
}

impl Subcommand for WalDump {
    const HELP: &'static str = "
  treeaa wal-dump <file>

`wal-dump` prints a node's (binary) write-ahead log as one canonical
JSON line per record — message bodies as length and FNV-1a, not bytes —
and a final `end` line with the record count, the valid prefix length
and whether a torn tail follows it. A corrupt, oversized or JSON-era
record ends the dump with its typed error and a non-zero exit, after
the records before it.
";

    /// The one subcommand with a positional argument.
    fn parse(o: &mut Opts) -> Result<Self, String> {
        match std::mem::take(&mut o.positional)[..] {
            [ref file] if o.keys.is_empty() => Ok(WalDump { file: file.clone() }),
            _ => Err("usage: treeaa wal-dump <file>".into()),
        }
    }

    fn execute(self, out: &mut impl std::io::Write) -> Result<(), String> {
        use aa_trace::Json;
        let file = self.file;
        let bytes = std::fs::read(&file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
        let (scan, err) = net::scan_wal(&bytes);
        for rec in &scan.records {
            writeln!(out, "{}", rec.to_json()).map_err(io)?;
        }
        err.map_or(Ok(()), |e| Err(e.to_string()))?;
        let torn = bytes.len() as u64 - scan.valid_len;
        let end = Json::Obj(vec![
            ("k".into(), Json::Str("end".into())),
            ("records".into(), Json::int(scan.records.len() as u64)),
            ("valid_len".into(), Json::int(scan.valid_len)),
            ("torn_tail_bytes".into(), Json::int(torn)),
        ]);
        writeln!(out, "{end}").map_err(io)
    }
}

fn build_family(family: &str, size: usize, seed: u64) -> Result<Tree, String> {
    if size == 0 {
        return Err("size must be positive".into());
    }
    Ok(match family {
        "path" => generate::path(size),
        "star" => generate::star(size),
        "binary" => generate::balanced_kary(2, (size.max(2) as f64).log2().floor() as u32),
        "caterpillar" => generate::caterpillar(size.div_ceil(3).max(1), 2),
        "spider" => generate::spider(4, size.div_ceil(4).max(1)),
        "broom" => generate::broom(size.div_ceil(2).max(1), size / 2),
        "random" => {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            generate::random_prufer(size, &mut rng)
        }
        other => return Err(format!("unknown family `{other}`")),
    })
}

/// Resolves every `--tree`: a family name with a trailing size (`path4`,
/// `star5`, built with seed 0) or a path to a tree file.
pub(crate) fn build_tree_spec(spec: &str) -> Result<Tree, String> {
    let digits = spec.len() - spec.chars().rev().take_while(char::is_ascii_digit).count();
    let (family, size) = spec.split_at(digits);
    if !family.is_empty() && !size.is_empty() {
        if let Ok(tree) = build_family(family, size.parse().map_err(|_| "bad size")?, 0) {
            return Ok(tree);
        }
    }
    let text = std::fs::read_to_string(spec)
        .map_err(|e| format!("`{spec}` is neither a tree family spec nor a readable file: {e}"))?;
    parse_tree(&text).map_err(|e| e.to_string())
}

/// Resolves comma-separated vertex labels, one per party.
pub(crate) fn parse_labels(tree: &Tree, labels: &str) -> Result<Vec<VertexId>, String> {
    labels
        .split(',')
        .map(str::trim)
        .map(|l| {
            tree.vertex(l)
                .ok_or_else(|| format!("unknown vertex label `{l}`"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::argv;
    use crate::{execute, parse_args, Command};

    #[test]
    fn parses_gen() {
        let cmd = parse_args(&argv("gen --family path --size 5 --dot")).unwrap();
        assert_eq!(
            cmd,
            Command::Gen(Gen {
                family: "path".into(),
                size: 5,
                dot: true,
                seed: 0
            })
        );
    }

    #[test]
    fn gen_and_info_roundtrip_through_a_file() {
        let mut buf = Vec::new();
        execute(
            Command::Gen(Gen {
                family: "caterpillar".into(),
                size: 12,
                dot: false,
                seed: 0,
            }),
            &mut buf,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("treeaa-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("t.tree");
        std::fs::write(&file, &buf).unwrap();

        let info = |tree: String| {
            let mut out = Vec::new();
            execute(Command::Info(Info { tree }), &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        let text = info(file.to_string_lossy().into_owned());
        assert!(text.contains("vertices        12"), "{text}");
        assert!(text.contains("TreeAA"), "{text}");
        // `info` resolves `--tree` like every other subcommand: the
        // family spec builds the same tree as the generated file.
        assert_eq!(info("caterpillar12".into()), text);
    }

    #[test]
    fn tree_specs_resolve_families_then_files() {
        assert_eq!(build_tree_spec("path9").unwrap().vertex_count(), 9);
        let err = build_tree_spec("definitely-not-a-tree").unwrap_err();
        assert!(err.contains("neither a tree family spec"), "{err}");
        let tree = build_tree_spec("star5").unwrap();
        let labels = parse_labels(&tree, "v0000, v0004").unwrap();
        assert_eq!(
            labels,
            [tree.vertex("v0000").unwrap(), tree.vertex("v0004").unwrap()]
        );
        let err = parse_labels(&tree, "v0000,nope").unwrap_err();
        assert!(err.contains("unknown vertex label `nope`"), "{err}");
    }

    #[test]
    fn bounds_prints_the_numbers() {
        let mut out = Vec::new();
        execute(
            Command::Bounds(Bounds {
                diameter: 1000.0,
                n: 31,
                t: 10,
            }),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Fekete"));
        assert!(text.contains("Theorem 2"));
    }

    #[test]
    fn parses_wal_dump_with_its_positional_file() {
        assert_eq!(
            parse_args(&argv("wal-dump /tmp/node0.wal")).unwrap(),
            Command::WalDump(WalDump {
                file: "/tmp/node0.wal".into()
            })
        );
        for bad in ["wal-dump", "wal-dump a b", "wal-dump --file x"] {
            let err = parse_args(&argv(bad)).unwrap_err();
            assert!(err.contains("wal-dump <file>"), "{bad}: {err}");
        }
    }

    #[test]
    fn wal_dump_prints_records_then_the_valid_length_and_torn_tail() {
        let path = std::env::temp_dir().join(format!("treeaa-dump-{}.wal", std::process::id()));
        let header = net::WalHeader {
            config_fp: 0xfeed,
            me: 1,
            n: 4,
            t: 1,
            seed: 7,
            min_delay_bits: 0.5f64.to_bits(),
            wire_version: net::WIRE_VERSION,
            label: "dump".into(),
        };
        let mut wal = net::WalWriter::create(&path, &header).unwrap();
        let mark = net::wal::WalMark {
            time_bits: 2.5f64.to_bits(),
            events: 64,
            probe: 0xdead_beef,
        };
        wal.append(&net::WalRecord::Mark(mark)).unwrap();
        drop(wal);
        let intact = std::fs::read(&path).unwrap();
        std::fs::write(&path, [&intact[..], &[0, 0, 0, 17, 2]].concat()).unwrap();

        let dump = |file: &std::path::Path| {
            let mut out = Vec::new();
            let cmd = Command::WalDump(WalDump {
                file: file.display().to_string(),
            });
            let status = execute(cmd, &mut out);
            (String::from_utf8(out).unwrap(), status)
        };
        let (text, status) = dump(&path);
        status.unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].starts_with(r#"{"k": "hdr", "fp": "000000000000feed""#));
        assert_eq!(
            lines[1],
            r#"{"k": "mark", "vt": "4004000000000000", "events": "0000000000000040", "probe": "00000000deadbeef"}"#
        );
        assert_eq!(
            lines[2],
            format!(
                r#"{{"k": "end", "records": 2, "valid_len": {}, "torn_tail_bytes": 5}}"#,
                intact.len()
            )
        );

        // Corruption: the records before it, then the typed error.
        let mut corrupt = intact.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 1;
        std::fs::write(&path, corrupt).unwrap();
        let (text, status) = dump(&path);
        assert_eq!(text.lines().count(), 1, "{text}");
        let err = status.unwrap_err();
        assert!(err.contains("fails its checksum"), "{err}");
        std::fs::remove_file(&path).unwrap();

        let err = dump(std::path::Path::new("/nonexistent/treeaa.wal"))
            .1
            .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }
}
