"""Golden outputs: sha256 digests of the JSON that `elementary`,
`projections`, `check-ring` and `density` write, with `meta` dropped, for
angle sets of orders 6 to 120, one without the real axis and the parametric
family.  Together with the exit codes they pin the CLI's bytes.

`check-ring` is also pinned at the degree the certify benchmark runs (3)
and at degree 0 (generators only).  Those digests were recorded on the
code as it stood before the membership solver took integer rows, so they
hold the rewrite to the old solver's bytes.  The two three-direction `ring`
sets (`hexagonal`, `square`) were recorded once `check_ring` solved x*x in
the same loop as every other product, which lists a certificate's terms in
column order, generator 0 first."""

import hashlib
import json

import pytest

from origami_rings.cli import run

SETS = {
    "example": "0,pi*1/6,pi*1/3,pi*1/2",
    "quarter": "0,pi*1/4,pi*1/2,pi*3/4",
    "fifth": "0,pi*1/5,pi*1/4,pi*1/3",
    "sixth": "0,pi*1/6,pi*1/2,pi*5/6",
    "five": "0,pi*1/6,pi*1/3,pi*1/2,pi*2/3",
    "hexagonal": "0,pi*1/3,pi*2/3",
    "square": "0,pi*1/4,pi*1/2",
    "twelfth": "0,pi*1/12,pi*1/6,pi*1/4",
    "tenth": "0,pi*1/10,pi*1/4,pi*1/2",
    "order120": "0,pi*1/10,pi*1/12",
    "no_axis": "pi*1/5,pi*1/3,pi*1/2",
    "param": "0,param:1,param:2,param:3",
}

COMMANDS = {
    "elementary": ["elementary"],
    "projections": ["projections"],
    "check-ring": ["check-ring", "--degree-bound", "2"],
    "density": ["density", "--target=1/3,-1/2", "--epsilon", "1/1000"],
}

# (exit code, sha256 of the output without meta, or None when nothing is written)
GOLDEN = {
    ('example', 'check-ring'): (0, '384705a11901744faa582d18db6e5c6b9fcf8d63d52c3dae12eab71dbfc75572'),
    ('example', 'density'): (0, '4c01839bc0d852af66627f4ece9e88a5182bb3ead3e33a8dd7b9d8002cea7899'),
    ('example', 'elementary'): (0, 'ddc37a44d064b71e4160807cee53e0694b6b724938e89fc024a449a2a1331871'),
    ('example', 'projections'): (0, 'e95e608f234488add2fc1fbb23e3e80ac58e0313b70b69288f5c1c3452677d2d'),
    ('fifth', 'check-ring'): (4, '9c64a63fcf6175ff26fd7fcea545e5daa7b9a6b24e4a5c5153f5b481f62f3066'),
    ('fifth', 'density'): (0, '4ed4bbd1a2d0d563315caee6d629510111578265c8cad4eb3663376dcf101c87'),
    ('fifth', 'elementary'): (0, 'e135a4a7b85a9e3ec8558729bf8fce264e27e7b60121e4f825780f6c6939feb7'),
    ('fifth', 'projections'): (0, 'bc90f3a2e5cdf6efc5e0fd62fb9b774de9ef5d36bc3aed4ce9a0a097c571e83c'),
    ('five', 'check-ring'): (0, '8da2eacf54411018794068696170442298277f80985ed179781e4dbd3d2c3c4a'),
    ('five', 'density'): (0, '207631e636145d9e0d4abfec9257cccf88f6630d2662a2149c942f27ce519961'),
    ('five', 'elementary'): (0, '446e8e9557156d332bc0fcd782f3a6c01176c60183ea015bc3ec4447dedd8746'),
    ('five', 'projections'): (0, '90f9361ca1fb5b0e3d9eed80b6ec24cd2ec2ec4fecfce8228b1764168e3d26f8'),
    ('hexagonal', 'check-ring'): (0, 'd357f3ff00fa5a9271486a53adfbddcacb0f5d195ef80ec374948630961ace20'),
    ('hexagonal', 'density'): (2, None),
    ('hexagonal', 'elementary'): (0, 'd8ffbd8ee1534af6b9af0f2b3c1b3e7f6005dd7dd856a335a8f86c312b0522c3'),
    ('hexagonal', 'projections'): (0, '8355968b77049856b2bc3c6c3b1749df7dc474d2f5fef89bdf0801619d96f3b4'),
    ('no_axis', 'check-ring'): (2, None),
    ('no_axis', 'density'): (2, None),
    ('no_axis', 'elementary'): (0, '545a62431c5ab865ae3133369c458a46aa7a4321a8dca4f6e5a6f8bacb3ae914'),
    ('no_axis', 'projections'): (0, '957e2683e201c3ce095f4d2f23c2ffc9bc8cf190b0696515c32f7dbbcc6a3d72'),
    ('order120', 'check-ring'): (3, 'dce50641d5846748ee2afa897282474bb5c64afe662c7432acb965572301287c'),
    ('order120', 'density'): (2, None),
    ('order120', 'elementary'): (0, '0802e19bd829374fa495407abcbc9824a4ed861f370ab357a77b8aae358fb507'),
    ('order120', 'projections'): (0, '8355968b77049856b2bc3c6c3b1749df7dc474d2f5fef89bdf0801619d96f3b4'),
    ('param', 'check-ring'): (0, '54f2c2cd4b2688299d851fcb442b4d42224aa6da2510eb5a5540cc0dc12f44c1'),
    ('param', 'density'): (2, None),
    ('param', 'elementary'): (0, 'c15396bbc9dc6c4ba7195a9411de6bfcb8d67930cf09add2f4beb23c778e228f'),
    ('param', 'projections'): (0, 'a91b672c12703b5d1ab741111805ed39b8a69f0e9d1db636077fa7b76d0ad3a2'),
    ('quarter', 'check-ring'): (0, '554bd7d0331335defde5727d0d5fa6f8d67cc878c985d45737c725abc9fc9131'),
    ('quarter', 'density'): (0, '671a870d4f9012a478cfddb0d78212eba93ae15348cd79ec98ad641def9204e3'),
    ('quarter', 'elementary'): (0, '80dc42e5d36c45f55d4cada7cd7368d2c2c7615be29cc3cb76877613c0d4683f'),
    ('quarter', 'projections'): (0, 'c21bd64bda36a34bf1ea5c4472624d21d1c05e00139a72d8616488b17d54dd4f'),
    ('sixth', 'check-ring'): (4, 'bf3e2aeea3e60c413bdbd9e976b6b2395012afb9ecb51740e808eb4e0fbbf5ca'),
    ('sixth', 'density'): (0, '48bc0a5a5afeaefd5a58b2b02aeb482b0e935eb993a0a9b99f63858879240454'),
    ('sixth', 'elementary'): (0, '744a71c67d39ade2843e8dfc321b5bdd36b435b8c60a485cc9aa1beda983a910'),
    ('sixth', 'projections'): (0, 'c21bd64bda36a34bf1ea5c4472624d21d1c05e00139a72d8616488b17d54dd4f'),
    ('square', 'check-ring'): (0, '75e7ec1cee1dae97a7b8bd9c4e993e764a37aa2cf9c815aec5b6e55379926da4'),
    ('square', 'density'): (2, None),
    ('square', 'elementary'): (0, '78db1df7e6e8e356bf3148f634b8e87e91321f74c922d2d26f3168dbe9e81c94'),
    ('square', 'projections'): (0, '8355968b77049856b2bc3c6c3b1749df7dc474d2f5fef89bdf0801619d96f3b4'),
    ('tenth', 'check-ring'): (0, '94006e90fc1535cdf91c11d6b5f211f5a8439ee2c3682442c0c56d4e44c3c699'),
    ('tenth', 'density'): (0, '18565ffd0e60038c48c25c93829fc7cbae80a8affc35df12ff80df41488b6328'),
    ('tenth', 'elementary'): (0, 'bea45e313673578f4404105399e082bd6b897130f1eb4995c64065ab71d8fbe6'),
    ('tenth', 'projections'): (0, 'c171d45cd9ddb94e0e06943fcafe8a469610dd6198dcf907d705e34ffd37ce16'),
    ('twelfth', 'check-ring'): (0, 'dff8c5e61293cb2ad347c2dd0b78fc21c3cb8ac5767166f1a9440b63f1bca2db'),
    ('twelfth', 'density'): (0, '33a14620d34727ca4ad50ae492f1d5890a2ce88ebe7c063086c8c5622eab11bc'),
    ('twelfth', 'elementary'): (0, 'f1018b23c17740355485c3e028d749b4c5a102bbb25bbb7832bcd8817fad5dac'),
    ('twelfth', 'projections'): (0, 'cfdf809dda0559a84d330bc968aa70d2c24252f2d1b8228c1c60f9da0117d604'),
}

# check-ring at other degree bounds: (set, degree) -> (exit code, sha256)
CHECK_RING_GOLDEN = {
    ('example', 0): (4, '7432775951934d1e4d678dd33f0cac01051077db5d0851620ef6813078144317'),
    ('example', 3): (0, '84ffd2ac339b5ae58d96fed912c46057c58273b045190d77e6bf8a4586e5f04a'),
    ('fifth', 3): (4, '73ee09d4901c30c75caf69c3ba2e04bf48b6e5ea40dfa453049f60f2f2bbbfce'),
    ('param', 0): (4, '81ab1fc56bfa9fc6d032fe0cc7bdd70b49a64a57664c5ab4fd662af84ef3bc91'),
    ('quarter', 3): (0, 'df01631770d6e2cc25299a6e90406743271af962140ca4f300daaa9a1db22b41'),
    ('sixth', 3): (4, '0fe5420e3e60c72e759ca5469ee70ac09b9167344c674c1699c88f8928d15dfe'),
}


def digest(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    if not out:
        return code, None
    obj = json.loads(out)
    obj.pop("meta")
    body = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return code, hashlib.sha256(body.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_golden_output(name, command, capsys):
    argv = COMMANDS[command][:1] + ["--angles", SETS[name]] + COMMANDS[command][1:]
    assert digest(argv, capsys) == GOLDEN[(name, command)]


@pytest.mark.parametrize("name, degree", sorted(CHECK_RING_GOLDEN))
def test_golden_check_ring_degree(name, degree, capsys):
    argv = ["check-ring", "--angles", SETS[name], "--degree-bound", str(degree)]
    assert digest(argv, capsys) == CHECK_RING_GOLDEN[(name, degree)]
