//! Seeded inputs: tables from `tu_corpus`, the model the server
//! builds, and the JSON bodies that go on the wire.
//!
//! The program only ever receives the generated tables. Every draw here
//! is a function of the `--seed` argument, so one seed gives one input
//! set, byte for byte.

use crate::stats::SplitMix;
use sigmatyper::{
    train_global, DurableEpochSource, GlobalModel, SigmaTyper, TieredStepCache, TrainingConfig,
};
use std::path::Path;
use std::sync::Arc;
use tu_corpus::{generate_corpus, AnnotatedTable, CorpusConfig};
use tu_table::{Column, Table};

/// The tenant (`x-sigma-tenant`) the crawler bills to.
pub const TENANT: &str = "crawler";

/// L1 capacity the server binary gives its tiered cache.
const L1_CAPACITY: usize = 1 << 16;

/// The global model exactly as `annotation-server` builds it: the
/// builtin ontology trained on `database_like(42, 40)` with
/// `TrainingConfig::fast()`. Training is deterministic, so this model
/// answers every table the way the served binary does.
pub fn binary_global() -> Arc<GlobalModel> {
    let ontology = tu_ontology::builtin_ontology();
    let corpus = generate_corpus(&ontology, &CorpusConfig::database_like(42, 40));
    Arc::new(train_global(ontology, &corpus, &TrainingConfig::fast()))
}

/// A customer over `global` with the deployed cache plumbing: a tiered
/// step cache and a durable epoch file under `dir`, as the binary's
/// `--cache-dir` sets up.
pub fn cached_typer(global: &Arc<GlobalModel>, dir: &Path) -> std::io::Result<SigmaTyper> {
    std::fs::create_dir_all(dir)?;
    let tier = TieredStepCache::open(dir.join("cache"), L1_CAPACITY)?;
    let epochs = DurableEpochSource::open(dir.join("epoch"))?;
    Ok(SigmaTyper::builder(Arc::clone(global))
        .step_cache(Arc::new(tier))
        .epoch_source(Arc::new(epochs))
        .build())
}

/// Derive the corpus seed of one workload from the run's seed.
fn corpus_seed(seed: u64, workload: u64) -> u64 {
    SplitMix::new(seed ^ workload.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// A table as its raw cell strings: the exact text the server's
/// `table_from_json` reads (nulls become empty strings).
#[derive(Clone)]
pub struct WireTable {
    pub name: String,
    pub headers: Vec<String>,
    pub cells: Vec<Vec<String>>,
}

impl WireTable {
    pub fn of(table: &Table) -> Self {
        WireTable {
            name: table.name.clone(),
            headers: table.headers().iter().map(|h| (*h).to_owned()).collect(),
            cells: table
                .columns()
                .iter()
                .map(|c| c.values.iter().map(tu_table::Value::render).collect())
                .collect(),
        }
    }

    pub fn n_cols(&self) -> usize {
        self.headers.len()
    }

    /// The table the server decodes from [`WireTable::json`]: the same
    /// `Column::from_raw` over the same strings, without the JSON hop.
    pub fn decoded(&self) -> Table {
        let columns = self
            .headers
            .iter()
            .zip(&self.cells)
            .map(|(h, cells)| Column::from_raw(h.as_str(), cells))
            .collect();
        Table::new(self.name.clone(), columns).expect("generated tables are rectangular")
    }

    /// The wire form: `{"name": …, "columns": [{"header": …, "values": […]}]}`.
    pub fn json(&self) -> String {
        let mut out = String::with_capacity(64 + self.cells.len() * self.cells[0].len() * 12);
        out.push_str("{\"name\":");
        push_json_str(&mut out, &self.name);
        out.push_str(",\"columns\":[");
        for (i, (header, cells)) in self.headers.iter().zip(&self.cells).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"header\":");
            push_json_str(&mut out, header);
            out.push_str(",\"values\":[");
            for (j, cell) in cells.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, cell);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// The warehouse-crawl shape: every column cyclically extended to
    /// `multiplier ×` its rows, starting `rotation` rows in, so each
    /// rotation is a distinct table to the cache.
    pub fn tall(&self, multiplier: usize, rotation: usize, name: String) -> WireTable {
        let rows = self.cells[0].len();
        let cells = self
            .cells
            .iter()
            .map(|col| {
                (0..rows * multiplier)
                    .map(|i| col[(i + rotation) % rows].clone())
                    .collect()
            })
            .collect();
        WireTable {
            name,
            headers: self.headers.clone(),
            cells,
        }
    }

    /// The recrawl a crawler hands back: every column grows by ~1% (at
    /// least one row), recycling head values, as in the repository's
    /// incremental-recrawl golden suite.
    pub fn appended(&self) -> WireTable {
        let rows = self.cells[0].len();
        let extra = (rows / 100).max(1);
        let cells = self
            .cells
            .iter()
            .map(|col| {
                let mut grown = col.clone();
                grown.extend((0..extra).map(|i| col[i % rows].clone()));
                grown
            })
            .collect();
        WireTable {
            name: self.name.clone(),
            headers: self.headers.clone(),
            cells,
        }
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `POST /annotate` body for `table` (already in wire form), with an
/// optional base crawl.
pub fn annotate_body(table_json: &str, base_json: Option<&str>) -> String {
    match base_json {
        None => format!("{{\"table\":{table_json}}}"),
        Some(base) => format!("{{\"table\":{table_json},\"base\":{base}}}"),
    }
}

/// `POST /feedback` body: the user relabels column `col_idx` as `ty`.
pub fn feedback_body(table_json: &str, col_idx: usize, ty: &str) -> String {
    let mut ty_json = String::new();
    push_json_str(&mut ty_json, ty);
    format!("{{\"table\":{table_json},\"col_idx\":{col_idx},\"type\":{ty_json}}}")
}

/// One labelled column a user corrects: the table, the column and its
/// true type name.
#[derive(Clone)]
pub struct Correction {
    pub table: WireTable,
    pub col_idx: usize,
    pub type_name: String,
}

/// Pick `n` corrections from `tables`, one seeded labelled column each.
pub fn corrections(tables: &[AnnotatedTable], n: usize, rng: &mut SplitMix) -> Vec<Correction> {
    let ontology = tu_ontology::builtin_ontology();
    (0..n)
        .map(|k| {
            let at = &tables[k % tables.len()];
            let labelled: Vec<usize> = (0..at.labels.len())
                .filter(|&i| !at.labels[i].is_unknown())
                .collect();
            let col_idx = labelled[rng.below(labelled.len())];
            Correction {
                table: WireTable::of(&at.table),
                col_idx,
                type_name: ontology.name(at.labels[col_idx]).to_owned(),
            }
        })
        .collect()
}

/// Base tables of the crawl workload: database-like, half the headers
/// opaque (`field_3`, `c7`, …), as warehouse schemas are.
pub fn crawl_bases(seed: u64, n: usize) -> Vec<AnnotatedTable> {
    let ontology = tu_ontology::builtin_ontology();
    let mut config = CorpusConfig::database_like(corpus_seed(seed, 2), n);
    config.opaque_header_rate = 0.5;
    generate_corpus(&ontology, &config).tables
}

/// Crawl request `i`: base `i mod bases`, rows ×8, rotated by the lap
/// number so that no two requests carry the same table.
pub fn crawl_table(bases: &[WireTable], i: usize) -> WireTable {
    let base = &bases[i % bases.len()];
    let lap = i / bases.len();
    base.tall(8, lap, format!("{}#crawl{i}", base.name))
}

/// The recrawl workload's fixed pool: database-like tables with half
/// the headers opaque, at their generated size.
pub fn recrawl_pool(seed: u64, n: usize) -> Vec<AnnotatedTable> {
    let ontology = tu_ontology::builtin_ontology();
    let mut config = CorpusConfig::database_like(corpus_seed(seed, 3), n);
    config.opaque_header_rate = 0.5;
    generate_corpus(&ontology, &config).tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_json_round_trips_through_the_server_decoder() {
        let table = WireTable {
            name: "t\"1".into(),
            headers: vec!["a\\b".into(), "c".into()],
            cells: vec![
                vec!["x\ny".into(), String::new()],
                vec!["1".into(), "é".into()],
            ],
        };
        let parsed = jsonshim::Json::parse(&table.json()).expect("valid JSON");
        let decoded = tu_server::wire::table_from_json(&parsed).expect("decodes");
        assert_eq!(decoded, table.decoded());
    }

    #[test]
    fn same_seed_same_inputs() {
        let bodies = |seed| {
            let bases: Vec<WireTable> = crawl_bases(seed, 3)
                .iter()
                .map(|at| WireTable::of(&at.table))
                .collect();
            (0..6)
                .map(|i| crawl_table(&bases, i).json())
                .collect::<Vec<_>>()
        };
        assert_eq!(bodies(7), bodies(7));
        assert_ne!(bodies(7), bodies(8));
    }
}
