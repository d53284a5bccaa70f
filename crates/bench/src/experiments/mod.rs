//! One module per table/figure of the paper's evaluation.
//!
//! See the crate docs for the mapping from experiments to tables and
//! figures.

pub mod ablation;
pub mod cascade;
pub mod churn;
pub mod compress;
pub mod datasets;
pub mod extensions;
pub mod fig10;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod io;
pub mod pager;
pub mod serve;
pub mod sweep;
pub mod table2;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table8;
pub mod table9;
