// Final-placement facade: global placement → legal placement.
// Pipeline: block legalization (mixed designs) → row legalization (Tetris
// or Abacus) → detailed refinement (the paper flow's Domino stage; see
// DESIGN.md §4).
#pragma once

#include "legal/abacus.hpp"
#include "legal/blocks.hpp"
#include "legal/refine.hpp"
#include "legal/tetris.hpp"
#include "netlist/netlist.hpp"

namespace gpf {

enum class row_legalizer { tetris, abacus };

struct legalize_options {
    row_legalizer algorithm = row_legalizer::abacus;
    tetris_options tetris;
    abacus_options abacus;
    refine_options refine;
    block_legalize_options blocks;
    bool run_refinement = true;
};

struct legalize_result {
    double hpwl_global = 0.0;  ///< HPWL of the input global placement
    double hpwl_legal = 0.0;   ///< after row legalization
    double hpwl_refined = 0.0; ///< after detailed refinement
    double row_seconds = 0.0;    ///< wall time of block + row legalization
    double refine_seconds = 0.0; ///< wall time of detailed refinement
    refine_result refine;
    block_legalize_result blocks;
};

/// Produce a legal placement from a global one. The input is not modified.
legalize_result legalize(const netlist& nl, const placement& global, placement& out,
                         const legalize_options& options = {});

} // namespace gpf
