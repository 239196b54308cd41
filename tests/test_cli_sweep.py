"""The CLI sweep against its pin; the corpus and its digest are in stdout_pins.

After a change that is meant to alter output, rerun this test and copy the
digest from its failure message into the pin file.
"""

from stdout_pins import long_refusal_mismatches, sweep_mismatches


def test_sweep_stdout_matches_pin(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # lattice files are named relative to it, as stdout echoes them
    monkeypatch.delenv("ASA_DIGIT_CAP", raising=False)
    assert not sweep_mismatches(tmp_path)


def test_long_refusals_write_one_short_line():
    assert not long_refusal_mismatches()
