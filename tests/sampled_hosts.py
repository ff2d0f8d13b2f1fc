"""Hosts from the paper's own distribution, stored as flip-word triples.

Each entry is (n, seed, (a, b, c)): the flip words of alpha, beta and
gamma (n - 1 bits each, sampler._word_to_runs) of the pair that
rejection_sample_fast(n, random.Random(seed), 10**9) returns.  decode
rebuilds the quadrangulation with n faces and its even Schnyder
decomposition from the words in milliseconds.  Finding them took 0.05 s
(n = 60) and 0.2 s (n = 120) each on a 2-core machine, and 7.7 s and
1.9 s (927,173 and 228,337 drawn triples) for n = 200 at seeds 0 and 1,
so tier-1 decodes the n = 200 entries but does not redraw them.  No map is
stored.
"""

from schnyder_kit.sampler import _triple_from_words

SAMPLED_HOSTS = [
    (60, 0, (0x38ad112c584ebf, 0x55cb393f03df146, 0x496a1989ae1ff57)),
    (60, 1, (0x105c0f8676e17ef, 0x30790337dcf2924, 0x470a7701c347fd)),
    (120, 0, (0x9255b5d7037db9a87398e6dc6e497,
              0x6d717212465670d0b8d334a2e127dc,
              0x135948aaaa11c63c69152f3451a7bd)),
    (120, 1, (0x4eaa4b2d8d107484a146f4d54b7d7,
              0x61cc06bfe118415ee5ccedff685c3c,
              0x4e040c950f274ee86f330ebedef1de)),
    (200, 0, (0x790703996ca80bb28b38ef73d1f82dc39cb6f6177c41a5af,
              0x398cae5af60284a4cb7145c34472fb78eb1bf0920ebb6d1da8,
              0x8822151f326dbce8697c0001ec392f878767c63de37f7d17a)),
    (200, 1, (0x78b2e8116a9d78fca514da2408e3392a7ed4d094f0d5eea5f,
              0x48f088a08dd5d9c28f7f34edc444613881adf3b49af2fedce4,
              0x1440361234c315f255502f0b69e7ce40cf15b5bb76facd8ddf)),
]


def triple(entry):
    """The EncodingTriple of a catalogue entry."""
    n, _, (a, b, c) = entry
    return _triple_from_words(a, b, c, n)
