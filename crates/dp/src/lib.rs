//! # tu-dp
//!
//! Data programming by demonstration (DPBD), the adaptation mechanism of
//! the paper (§4.2, Figure 3): labeling functions as weak voters,
//! automatic LF inference from a user's relabel demonstration, a
//! one-coin EM label model that reconciles conflicting votes (Ratner et
//! al. \[29\]), and weak-label mining over a corpus to generate customized
//! training data.

#![warn(missing_docs)]

pub mod generate;
pub mod infer;
pub mod labelmodel;
pub mod lf;

pub use generate::{mine_weak_labels, mined_precision, MinedColumn, MiningConfig, Resolution};
pub use infer::{infer_lfs, Demonstration, InferConfig};
pub use labelmodel::{majority_vote, LabelModel, LabelModelConfig, VoteRow, WeakLabel};
pub use lf::{
    context, hits_reaching, normalize, LabelingFunction, LfContext, LfKind, LfSample, LfSource,
    LfStrength,
};
