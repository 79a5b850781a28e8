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
        '4456fbd132a24d164cc6f3a7cfc6ede4266c8270b5c76b1255eaa8b6ba03e1bc',
    ('SU42', 'sweep-random'):
        '6cc2d286ca17dc7902d49c5dc3f3a9869a9a6fec8dd277d3f4ca983492f94a66',
    ('SU42', 'flow'):
        'b3bc7d8c76f88bda8c8c3ac5d43f1f9dfe1162e1651f4d9f80bb36f287900b83',
    ('SU42', 'blowup'):
        '0644e199fa73a3f69004936c32068d103786897744d329eb3cf0b03b3b208302',
    ('FIX-A', 'einstein'):
        '016de4ab2b9cc935a85c1202c59d7e8e7ab30c6c88aae2258faf81c200c463be',
    ('FIX-A', 'portrait'):
        'd03e641ab28498470c4491a1fc3fadb327fad66269f74c2ff17f66fe53c5f2d1',
    ('FIX-A', 'sweep-grid'):
        '25d036b7ecc16e24a01cfee6b65a81ab74119a718e10fa2f5f815ca7ae04dff7',
    ('FIX-A', 'sweep-random'):
        'bb749cf2deeb6332581da7a4621c3d6dc07d73ed6e615bb440ef3471fa7987f1',
    ('FIX-A', 'flow'):
        '9b2476e6e13e49b0de15bb6e2967785bcb9d1bd2a338dbcae2304520636b2b91',
    ('FIX-A', 'blowup'):
        '35b2a726e73d0fa05dac20ed0416400597384dbfda3f06cea17da12720c047fd',
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
        'f749fac38c712439edc3521345eb6e345e354f67415b2d9bb47302f420f4dc72',
    ('FIX-C0', 'einstein'):
        '7f664d39b88c03357f0a1627fce8bc30552fe827bba95040550065912da30dd7',
    ('FIX-C0', 'portrait'):
        '730c273991198b06c0561796cc391ced3e93688469c25303cf7376a119923382',
    ('FIX-C0', 'sweep-grid'):
        '7b32e4fbe518be3d00838d070d44d734e6a40cb160530716e77c20ffa2d36344',
    ('FIX-C0', 'sweep-random'):
        'fc4473eb67b0b8282bca2ec67e1589c7059d0fca7e84949f5146748ee90d5587',
    ('FIX-C0', 'flow'):
        '8fbfbf645a4da43ced25764b872aee4e899235f1165c7ebc94982c1c820652a8',
    ('FIX-C0', 'blowup'):
        'dc66f9cc3d51a7f4ced8dc198cffcf6a0c488fd1b33118cd500eec40aa1968d3',
    ('FIX-D', 'einstein'):
        '471c215eb0e2e6c877d6433042a16e19051229d7c87878676bff497a43ed68f4',
    ('FIX-D', 'portrait'):
        '2529ca128694095e8832ee64b48b4c0ed704d9e6642c34504508f6eae27e5a57',
    ('FIX-D', 'sweep-grid'):
        '0b04366f3b64042046a066be1301fa56ab69c40551e6dd83fad628bede27ace2',
    ('FIX-D', 'sweep-random'):
        '3ccc850c9dee81dd42b0df5c8b652eb02793b4e7728914cc21a5fdafd39f8d1c',
    ('FIX-D', 'flow'):
        '865eab42877c61fea3c6b08da88862426575495d8e5ee80b9d05ef95467bc5e9',
    ('FIX-D', 'blowup'):
        '121aca74b61d2bbaf81873202250e8dfc91aa49f18ada58d394bfe29492269eb',
    ('FIX-E', 'einstein'):
        '2ea15fb2a86c63086d3efbe04637b0c252ba9b77825599089f6c51ebcfc35b4c',
    ('FIX-E', 'portrait'):
        '031fad9b1250acd41da1f164f81f465d63d2a8a4091533b003835b67592f1e22',
    ('FIX-E', 'sweep-grid'):
        '0c5ffacd00652665fd7ab941e5935217cb8604a0a15d86424a090c9f27313aae',
    ('FIX-E', 'sweep-random'):
        'b179573e47dcb987f1a12cbe8a31b37d3cd45204d6b0e38acca764a6adccd6b2',
    ('FIX-E', 'flow'):
        'a9b6f256976c8af0bce849e8f4b301dd4661fdf64aff3d403c6bdf5b257d706c',
    ('FIX-E', 'blowup'):
        '463454a242ee079b4c306defd5520aa78570296fa5f0fba043bd035a5490dd59',
    ('FIX-E2', 'einstein'):
        '5d214c83eeeb84ffa4698c875fa70260e2651f95a4c36b4a865ecf2f6fb5d6d9',
    ('FIX-E2', 'portrait'):
        '12826b60bea0cb9a40b3c00a87737eb8897ad1e4437b41dd40ebec6bf1a1bf2e',
    ('FIX-E2', 'sweep-grid'):
        '2ab155da9ce4e31ff7e053aab1050318a4b6424297f37cfacd4606f3d2ec4e14',
    ('FIX-E2', 'sweep-random'):
        'e01d3c8b782061cfb87a7a89e032a698029b31685b472a138371b2a34e7f9abc',
    ('FIX-E2', 'flow'):
        '264e8af722abb263ce2eb5814708133ab85796ff281321d7b8834d04c0ac73ae',
    ('FIX-E2', 'blowup'):
        '0e409ab0561af51ec3268bd187463f28afdd1597d18cf7d4719ac0fbd7ca0bca',
    ('FIX-F', 'einstein'):
        '2d4e3794f37c1f8e72d9c22977d69977755ccd97f42eeef82fbbf79e6af16561',
    ('FIX-F', 'portrait'):
        '89effcc2cdd6b8a9bdef757753c1e8acbb9b20bbe3722323089fa6264dd3fdbe',
    ('FIX-F', 'sweep-grid'):
        '2418b8b6e49c2a4a92726f39c0ebc71f858d0355d9cd874efa0cfc75200d61c8',
    ('FIX-F', 'sweep-random'):
        'ef45aff16fd2920ce184bcafeaf2d3a428c38286ff71f0a0f0db24ef3a3b88ba',
    ('FIX-F', 'flow'):
        '18d833069b353abbbee11b45f1062272f38ce30dbacc3d846187d7538f7bc602',
    ('FIX-F', 'blowup'):
        '958a3701b8877c2d17abd4cf12f6a82afd75b00240384d781813b988e33c0f58',
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
