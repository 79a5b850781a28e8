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
        '4cd840888fb77ff89b7d9c05c36c010758baec9f374f765c6a1d32da5ee5b4ef',
    ('SU42', 'sweep-random'):
        '574564e5f4163074cb3c533f2a96cc9796432e1f732d9bf9e82b7ab3b2e21f1f',
    ('SU42', 'flow'):
        'd09eb42fab32040436d5000afc35c7c188835515879ba9c8ec6f353fe76f5ec4',
    ('SU42', 'blowup'):
        '4d3a2355e3703ddc5e28cd2c9ed2cb155ad422067f5ad924acbf1d531835404f',
    ('FIX-A', 'einstein'):
        '016de4ab2b9cc935a85c1202c59d7e8e7ab30c6c88aae2258faf81c200c463be',
    ('FIX-A', 'portrait'):
        'd03e641ab28498470c4491a1fc3fadb327fad66269f74c2ff17f66fe53c5f2d1',
    ('FIX-A', 'sweep-grid'):
        'cc7a8dd8392a708a75630f9d5b12e96e1c9d3fc5fd186d7ab8850f81986f48d9',
    ('FIX-A', 'sweep-random'):
        'dac1ea2944c940f7eeebc3572916b2e1b85241e655007ab39bc1994d0c4655f8',
    ('FIX-A', 'flow'):
        '49c9501bdbfa853f46153430ecef3851ac73c4b2d6ea0979f2a63865b0708f6e',
    ('FIX-A', 'blowup'):
        'ef0079756dda4fbfc1f2cfcf0aa941c8061b5935336a20b7641b55b7fcb66419',
    ('FIX-B', 'einstein'):
        '0860598a431afac9ad5eb53c9783967c303fc33daa90719584eb4f0666b99379',
    ('FIX-B', 'portrait'):
        'c79e84179878d1265a9b6532888314328770451ae8efe60ad8592522e3033754',
    ('FIX-B', 'sweep-grid'):
        '8fde1f1a1efab2a0ac9f8d1216749908511bcbfe46c3ff39742d145feab6cf5e',
    ('FIX-B', 'sweep-random'):
        'be262a14d0e9baa745ef6d2035ea99f04c30139b31dfcfcaf7bd87e605847d14',
    ('FIX-B', 'flow'):
        'b98f1bf782e77e7458a16801392f695d3ac17d075dc7f146f8dc15410a53b1d5',
    ('FIX-B', 'blowup'):
        'c319c9710c89ef80424d2135e3acef01664716c2d8c67e99bdd4547998469f6e',
    ('FIX-C0', 'einstein'):
        '7f664d39b88c03357f0a1627fce8bc30552fe827bba95040550065912da30dd7',
    ('FIX-C0', 'portrait'):
        '730c273991198b06c0561796cc391ced3e93688469c25303cf7376a119923382',
    ('FIX-C0', 'sweep-grid'):
        'e5a2bf6e25aa42484edec4cedd3d2edf3be27972b3e84cc4f253acd1b355764c',
    ('FIX-C0', 'sweep-random'):
        '7d80c9c3257c51ec668316d150cfd40a6ed69984ccb4e1511f061f58692abcfa',
    ('FIX-C0', 'flow'):
        '6f2b92416cedf6352f7e7c0a2557190c121c6ac06746d06a86d749a0924bc768',
    ('FIX-C0', 'blowup'):
        '9ddc426c16377a6478329a79002af9f88cd524d50fc6be76ecd16a5e33b62d46',
    ('FIX-D', 'einstein'):
        '471c215eb0e2e6c877d6433042a16e19051229d7c87878676bff497a43ed68f4',
    ('FIX-D', 'portrait'):
        '2529ca128694095e8832ee64b48b4c0ed704d9e6642c34504508f6eae27e5a57',
    ('FIX-D', 'sweep-grid'):
        '020f1c69b9e1f7f7bc3150fb91d47a8bb7f4ad9012fc0ac3871d0814a1511666',
    ('FIX-D', 'sweep-random'):
        'a4f59413ab626eefb1a68ed93dfe3a5b30eb731e7a1d2dc2908656efc3c47d5d',
    ('FIX-D', 'flow'):
        '50dd38fd6158639372a027383f30f5833fb3ff0f340924a2d863806623a012cc',
    ('FIX-D', 'blowup'):
        '03954c486ed69c33de127b735d4a76f83c80d19f476003c93b5abbf93410408b',
    ('FIX-E', 'einstein'):
        '2ea15fb2a86c63086d3efbe04637b0c252ba9b77825599089f6c51ebcfc35b4c',
    ('FIX-E', 'portrait'):
        '031fad9b1250acd41da1f164f81f465d63d2a8a4091533b003835b67592f1e22',
    ('FIX-E', 'sweep-grid'):
        '5a990f9ccbd8a552f75962e23590871d5a56a9ff97e6c42bb26fcefd5c5bfe37',
    ('FIX-E', 'sweep-random'):
        'a81df82ea9aad8dc65e48c938a6f5a4502ea4c9298717d984848b9b8fa46c9f3',
    ('FIX-E', 'flow'):
        '9bf786a38991a66cfddc2fdb30b64a0c916e8d86f47b64ef762ab5e17a981131',
    ('FIX-E', 'blowup'):
        '6c2d01e4975610b8a517026a2581d65c1879a999ba982a6db2253080bf10662a',
    ('FIX-E2', 'einstein'):
        '5d214c83eeeb84ffa4698c875fa70260e2651f95a4c36b4a865ecf2f6fb5d6d9',
    ('FIX-E2', 'portrait'):
        '12826b60bea0cb9a40b3c00a87737eb8897ad1e4437b41dd40ebec6bf1a1bf2e',
    ('FIX-E2', 'sweep-grid'):
        '565e9c2bdee141b16cd88ca885382f8fc4f2c68b8a854238e6f88dcf5db165f7',
    ('FIX-E2', 'sweep-random'):
        '771c68dc8423dbc6f583359c9ecc4e6afcd1df0dc78eafb7efa71b74ba362832',
    ('FIX-E2', 'flow'):
        'c38a7793084897f1d681a614f3d397cd3c01b87b9af239644c3c70b1f6f41f21',
    ('FIX-E2', 'blowup'):
        'ee40ef4bb2fafff28d811a46f4008741d1170f01a2228a617bfb0e024751a9db',
    ('FIX-F', 'einstein'):
        '2d4e3794f37c1f8e72d9c22977d69977755ccd97f42eeef82fbbf79e6af16561',
    ('FIX-F', 'portrait'):
        '89effcc2cdd6b8a9bdef757753c1e8acbb9b20bbe3722323089fa6264dd3fdbe',
    ('FIX-F', 'sweep-grid'):
        '9bc1a036451b6391e9d15339aeb850d3f3c903de757ff754f7292534959efa7a',
    ('FIX-F', 'sweep-random'):
        'e37ae2122fadc5f8017168f48629c2d5557a81585b9d45f2db8ad7310a6aeb8b',
    ('FIX-F', 'flow'):
        '0a9a7a2b858e960f4e31f41dce4938bc1f1111f6d7286ab1d952e58c1c888ca9',
    ('FIX-F', 'blowup'):
        '9c4f25355b49a8e5c34b3511c4f7aa4f8202c44f53948b9eb226eb01a2e67ddd',
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
