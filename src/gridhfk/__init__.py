"""Grid-diagram link homology over GF(2).

Compute the bigraded homology of the tilde complex of a grid diagram,
extract extremal (bottom/top) groups, genus, and tau-extremality flags,
verify the two Murasugi-sum theorems on curated cases, and run the
multiplicative polynomial ledger.

The package root holds no names but ``__version__``; import each entry
point from its module:

  * ``grids``: ``GridDiagram``, ``make_grid``, ``parse_grid``,
    ``load_grid``, ``format_grid``, ``mirror``, ``connected_sum``,
    ``simplify``, ``count_components``, ``legendrian_front``, and the
    bundled corpus (``load_corpus``, ``list_corpus``, ``corpus_path``,
    ``corpus_case_path``);
  * ``invariants``: ``hat_ranks``, ``homology_ranks`` (the tilde
    table, the hat inflated), ``bottom_group``, ``top_group``,
    ``scan_bottom``, ``genus2``, ``tau_top_is_g``,
    ``tau_bot_is_minus_g`` and ``alexander_polynomial``;
  * ``homology``: ``build_level_complex``, ``deflate_to_hat``,
    ``inflate`` and ``induced_map_rank``;
  * ``murasugi``: ``load_case``, ``make_connected_sum_case``,
    ``mirror_scans``, ``verify_theorem1``, ``verify_theorem2`` and
    ``cable_top_group_predict``;
  * ``ledger``: ``Ledger``, ``LedgerEntry``, ``load_ledger``,
    ``save_ledger``, ``seed_entries``, ``entry_from_grid``, ``p_image``
    and the certificates ``independent_by_coprimality``,
    ``cor6_obstruction`` and ``b1_sum_check``;
  * ``polynomials``: ``LaurentPoly``;
  * ``errors``: ``GridInputError``, ``GridResourceError`` and the other
    exception types;
  * ``generators`` (``level_counts``, ``generators_in_level``),
    ``gradings`` (``GradingCalculator``), ``rectangles``
    (``boundary_entries``) and ``gf2`` (``matrix_rank``): the layers
    beneath;
  * ``cli``: ``run``, the ``gridhfk`` command.
"""

__version__ = "0.1.0"
