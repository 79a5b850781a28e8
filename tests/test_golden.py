"""Byte-for-byte outputs of the command line on the two-summand catalog.

Each case runs one ``hrflow`` command in a fresh working directory and
hashes (SHA-256) its exit code, its stdout and every file it wrote, file
names included.  The digests pin this platform's floating-point results
(IEEE double arithmetic as done by this interpreter and numpy build): a
refactor that promises identical outputs must leave every digest as it is,
and a deliberate numerical change re-records them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import os

import pytest

from hrflow.cli import main

FIXTURES = ("SU42", "FIX-A", "FIX-B", "FIX-C0", "FIX-D", "FIX-E", "FIX-E2",
            "FIX-F")

#: starting directions for flow and blowup, each off every Einstein root
Y0 = {"SU42": "1.0", "FIX-A": "0.7", "FIX-B": "0.3", "FIX-C0": "0.8",
      "FIX-D": "1.5", "FIX-E": "0.9", "FIX-E2": "1.2", "FIX-F": "1.0"}

SWEEP = ("sweep", "--count", "12", "--y0-range", "0.05,20")

COMMANDS = {
    "einstein": lambda name: ["einstein", "--space", name],
    "portrait": lambda name: ["portrait", "--space", name],
    "sweep-grid": lambda name: [*SWEEP, "--space", name],
    "sweep-random": lambda name: [*SWEEP, "--space", name,
                                  "--mode", "random", "--seed", "7"],
    "flow": lambda name: ["flow", "--space", name, "--y0", Y0[name],
                          "--backward"],
    "blowup": lambda name: ["blowup", "--space", name, "--y0", Y0[name]],
}

GOLDEN = {
    ('SU42', 'einstein'):
        '1a11b0c7db95a90c13c4d5c166572ecc8e4aed210afa0ae3e9df0b2a7ede61f3',
    ('SU42', 'portrait'):
        '3fdaa7bd77b57f070d2bf933106026755d01fc99d8384520f66caa44a445ad1d',
    ('SU42', 'sweep-grid'):
        'bc6af2bd8272ba02e8eb8b8a124ccc8d9c49cee8b68c2609c1acb363782b62f9',
    ('SU42', 'sweep-random'):
        'cb89f03a548ff05a540b69f3114c56114d7e21c3f1855d15d7e3983808b74b20',
    ('SU42', 'flow'):
        'b3bc7d8c76f88bda8c8c3ac5d43f1f9dfe1162e1651f4d9f80bb36f287900b83',
    ('SU42', 'blowup'):
        '20fcba3336b6460e4dd78397e72c7862ad508c953021a83235260845c359643c',
    ('FIX-A', 'einstein'):
        '016de4ab2b9cc935a85c1202c59d7e8e7ab30c6c88aae2258faf81c200c463be',
    ('FIX-A', 'portrait'):
        'd03e641ab28498470c4491a1fc3fadb327fad66269f74c2ff17f66fe53c5f2d1',
    ('FIX-A', 'sweep-grid'):
        'f4bc35bc6b82aa6f6b34e14146b8dc7a0ec827e63855192e0e77ae6324e11088',
    ('FIX-A', 'sweep-random'):
        'ac1a1320dd68f061c590c6f7c494e1427e64f0519974979f91b9da33c51551ad',
    ('FIX-A', 'flow'):
        '9b2476e6e13e49b0de15bb6e2967785bcb9d1bd2a338dbcae2304520636b2b91',
    ('FIX-A', 'blowup'):
        '65c57963ac7aa47e153ba3fc7338878f31efcac0f6735c351b1602d4a8763a2b',
    ('FIX-B', 'einstein'):
        '0860598a431afac9ad5eb53c9783967c303fc33daa90719584eb4f0666b99379',
    ('FIX-B', 'portrait'):
        'c79e84179878d1265a9b6532888314328770451ae8efe60ad8592522e3033754',
    ('FIX-B', 'sweep-grid'):
        '12ccb04b896a50fa4ca52a0f553b1883698c18a3a41c0055d4926d9fdd1e9118',
    ('FIX-B', 'sweep-random'):
        'cf8cd90c637ea7de641aa7fc5e8fdbe02368653c530cdab042ffe513e18a099c',
    ('FIX-B', 'flow'):
        'b79c480d4aa34b9c7b681e3c144573ece6a4eed50f54f7f2d995980b530ce69e',
    ('FIX-B', 'blowup'):
        '82005ca663a8a33c4f4c69d845f14db63c95f9459106f9d860d3ad09b4128d04',
    ('FIX-C0', 'einstein'):
        '7f664d39b88c03357f0a1627fce8bc30552fe827bba95040550065912da30dd7',
    ('FIX-C0', 'portrait'):
        '730c273991198b06c0561796cc391ced3e93688469c25303cf7376a119923382',
    ('FIX-C0', 'sweep-grid'):
        '08b6751c8722dcc147faa3cdd44081b82f4552707ce5d277a94208448f6356d6',
    ('FIX-C0', 'sweep-random'):
        'fc0c5cc9c4044af3465e1e1109de077d2077cdff81e0153ec0dff24895b09e10',
    ('FIX-C0', 'flow'):
        '8fbfbf645a4da43ced25764b872aee4e899235f1165c7ebc94982c1c820652a8',
    ('FIX-C0', 'blowup'):
        '9ddc426c16377a6478329a79002af9f88cd524d50fc6be76ecd16a5e33b62d46',
    ('FIX-D', 'einstein'):
        '471c215eb0e2e6c877d6433042a16e19051229d7c87878676bff497a43ed68f4',
    ('FIX-D', 'portrait'):
        '2529ca128694095e8832ee64b48b4c0ed704d9e6642c34504508f6eae27e5a57',
    ('FIX-D', 'sweep-grid'):
        '95fe1087732986852e464abb6b49ebf9a077406f681e088efdb0fbdde9b3b461',
    ('FIX-D', 'sweep-random'):
        '0b5f7f650505e4809839f20a71166e39cc1b3ba542b6d56a020bebb26bb3f075',
    ('FIX-D', 'flow'):
        '865eab42877c61fea3c6b08da88862426575495d8e5ee80b9d05ef95467bc5e9',
    ('FIX-D', 'blowup'):
        '8f69375a30f15477ec0c09fed2b6b2d8fda97b6e90db3d198abb8e096088fdec',
    ('FIX-E', 'einstein'):
        '2ea15fb2a86c63086d3efbe04637b0c252ba9b77825599089f6c51ebcfc35b4c',
    ('FIX-E', 'portrait'):
        '031fad9b1250acd41da1f164f81f465d63d2a8a4091533b003835b67592f1e22',
    ('FIX-E', 'sweep-grid'):
        '6a8dd365bc8cb285000a40b8f543e74fe0e50c7e0aa68f57b75eadc177bdf392',
    ('FIX-E', 'sweep-random'):
        '1c22349bf6e83ed497d91a19aef5d3aef6d7b1420751ec4050c6e573da65f5ce',
    ('FIX-E', 'flow'):
        'a9b6f256976c8af0bce849e8f4b301dd4661fdf64aff3d403c6bdf5b257d706c',
    ('FIX-E', 'blowup'):
        '021c7de30df145273a81b85c01508ddb67b469b2e081e8e2ad6284b2afc11514',
    ('FIX-E2', 'einstein'):
        '5d214c83eeeb84ffa4698c875fa70260e2651f95a4c36b4a865ecf2f6fb5d6d9',
    ('FIX-E2', 'portrait'):
        '12826b60bea0cb9a40b3c00a87737eb8897ad1e4437b41dd40ebec6bf1a1bf2e',
    ('FIX-E2', 'sweep-grid'):
        '4b33c14544fbdd4a399536d6060ccbabc8d9fea17c89193cee7d4d9a614e68ca',
    ('FIX-E2', 'sweep-random'):
        '1122bc8a87b0887d2e0b8088f6927a66744dfd935b590a0c956558019858891a',
    ('FIX-E2', 'flow'):
        '264e8af722abb263ce2eb5814708133ab85796ff281321d7b8834d04c0ac73ae',
    ('FIX-E2', 'blowup'):
        '1688860c4773ecbc763fbb5f8e19393f5fcd6cbbbd3af603c80d2bcfeecaa99e',
    ('FIX-F', 'einstein'):
        '2d4e3794f37c1f8e72d9c22977d69977755ccd97f42eeef82fbbf79e6af16561',
    ('FIX-F', 'portrait'):
        '89effcc2cdd6b8a9bdef757753c1e8acbb9b20bbe3722323089fa6264dd3fdbe',
    ('FIX-F', 'sweep-grid'):
        'aef32c70cab0f716c4410579447363732c43936699bdfd6a47784b34d8f78d5c',
    ('FIX-F', 'sweep-random'):
        '0eafd03c8ee61e5ddb948c78a833acf248e1bf4d6480c058ed2e8f8067a44ae8',
    ('FIX-F', 'flow'):
        '0ad6c2d4183ad8a6e69aa6e35662838b91a689f0b85f0f2ef8e25d8f83f81020',
    ('FIX-F', 'blowup'):
        'd31be9f3dd39822ce4bf229bf8517287d3d4575332fca092719700734a0e0511',
}


def digest(argv: list[str], workdir: str) -> str:
    """SHA-256 over the exit code, stdout and written files of one run."""
    os.makedirs(workdir)
    here = os.getcwd()
    out = io.StringIO()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--out", "."])
    finally:
        os.chdir(here)
    h = hashlib.sha256(f"exit {code}\n".encode())
    h.update(out.getvalue().encode())
    for fname in sorted(os.listdir(workdir)):
        h.update(f"\n== {fname}\n".encode())
        with open(os.path.join(workdir, fname), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


@pytest.mark.parametrize("name,command", sorted(GOLDEN))
def test_golden_output(name, command, tmp_path):
    argv = COMMANDS[command](name)
    assert digest(argv, str(tmp_path / "run")) == GOLDEN[name, command], argv


def test_golden_covers_every_case():
    assert set(GOLDEN) == {(n, c) for n in FIXTURES for c in COMMANDS}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name in FIXTURES:
            for command, make in COMMANDS.items():
                d = digest(make(name), os.path.join(tmp, f"{name}-{command}"))
                print(f"    ({name!r}, {command!r}):\n        {d!r},")
        print("}")
